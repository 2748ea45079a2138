package types

import (
	"math/rand"
	"testing"
)

// Benchmark fixtures: realistic steady-state messages. A proposal with a
// 512-byte payload, a 64-byte block signature and a 3-signer parent
// notarization models the per-round block broadcast; the two-vote
// VoteMsg models the bundled notarize+fast vote every replica sends once
// per round (Algorithm 1 line 39).

func benchSig(r *rand.Rand, n int) []byte {
	s := make([]byte, n)
	r.Read(s)
	return s
}

func benchVote(r *rand.Rand, kind VoteKind, round Round, voter ReplicaID) Vote {
	v := Vote{Kind: kind, Round: round, Voter: voter, Signature: benchSig(r, 64)}
	r.Read(v.Block[:])
	return v
}

func benchProposal() *Proposal {
	r := rand.New(rand.NewSource(42))
	payload := make([]byte, 512)
	r.Read(payload)
	b := NewBlock(9, 2, 0, BlockID{1, 2, 3}, BytesPayload(payload))
	b.Signature = benchSig(r, 64)
	cert := &Certificate{Kind: CertNotarization, Round: 8, Block: BlockID{4, 5}}
	for i := 0; i < 3; i++ {
		cert.Signers = append(cert.Signers, ReplicaID(i))
		cert.Sigs = append(cert.Sigs, benchSig(r, 64))
	}
	fv := benchVote(r, VoteFast, 9, 2)
	return &Proposal{Block: b, ParentNotarization: cert, FastVote: &fv}
}

func benchVoteMsg() *VoteMsg {
	r := rand.New(rand.NewSource(43))
	return &VoteMsg{Votes: []Vote{
		benchVote(r, VoteNotarize, 9, 1),
		benchVote(r, VoteFast, 9, 1),
	}}
}

// BenchmarkEncodeDecode measures the wire codec on the block-broadcast
// hot path: encoding charges the proposer once per message, decoding
// charges every receiver once per delivery; reencode encodes a message
// decoded in place.
func BenchmarkEncodeDecode(b *testing.B) {
	bench := func(name string, m Message) {
		enc, err := EncodeMessage(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("encode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := EncodeMessage(m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeMessage(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode-inplace/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeMessageInPlace(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("reencode/"+name, func(b *testing.B) {
			dec, err := DecodeMessageInPlace(enc)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := EncodeMessage(dec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	bench("proposal", benchProposal())
	bench("votemsg", benchVoteMsg())
}
