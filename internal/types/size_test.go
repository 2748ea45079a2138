package types

import (
	"math/rand"
	"testing"
)

// TestSizesAreCountingPasses: for every message kind, EncodedSize is the
// length of EncodeMessage's bytes, VecHeadSize's head the length of
// AppendMessageVec's head and its size the EncodedSize, and WireSize
// exceeds EncodedSize by SynthSize-8 per synthetic payload the message
// carries (a 13-byte descriptor billed as 1+4+SynthSize bytes). None of
// the three allocates.
func TestSizesAreCountingPasses(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	signed := func(round Round, p Payload) *Block {
		b := NewBlock(round, 1, 0, BlockID{byte(round)}, p)
		b.Signature = randomBytes(r, 64)
		return b
	}
	synth := func(size int) Payload { return SyntheticPayload(size, uint64(size)) }
	fv := randomVote(r)
	change := ConfigChange{Op: ConfigAdd, Replica: 9, PubKey: randomBytes(r, 32)}
	cases := []struct {
		name  string
		m     Message
		synth int // Σ(SynthSize-8) over the synthetic payloads m carries
	}{
		{"proposal/synthetic", &Proposal{Block: signed(2, synth(64<<10)), ParentNotarization: randomCert(r),
			ParentUnlock: randomUnlock(r), FastVote: &fv}, 64<<10 - 8},
		{"proposal/synthetic+change", &Proposal{Block: signed(2, ConfigChangePayload(change, synth(100)))}, 100 - 8},
		{"proposal/bytes", &Proposal{Block: signed(3, BytesPayload(randomBytes(r, 2*RefMin))), FastVote: &fv}, 0},
		{"proposal/txs", &Proposal{Block: signed(3, TxsPayload([][]byte{randomBytes(r, RefMin), randomBytes(r, 9)}))}, 0},
		{"proposal/batches", &Proposal{Block: signed(4, randomBatchPayload(r))}, 0},
		{"proposal/header", &Proposal{Header: signed(5, synth(1<<20)).SignedHeader(), ParentNotarization: randomCert(r),
			Relayed: true}, 0},
		{"vote", &VoteMsg{Votes: []Vote{randomVote(r), randomVote(r)}}, 0},
		{"cert", &CertMsg{Cert: randomCert(r)}, 0},
		{"advance", &Advance{Notarization: randomCert(r), Unlock: randomUnlock(r)}, 0},
		{"new-view", &NewView{Round: 7, Sender: 2, HighQC: randomCert(r), Signature: randomBytes(r, 64)}, 0},
		{"sync-request", &SyncRequest{From: 3, To: 9}, 0},
		{"sync-response", &SyncResponse{Blocks: []*Block{signed(6, synth(5000)), signed(7, BytesPayload(randomBytes(r, 40))),
			signed(8, synth(64<<10))}, Finalization: randomCert(r)}, 5000 - 8 + 64<<10 - 8},
		{"snapshot-request", &SnapshotRequest{Have: 42}, 0},
		{"snapshot-response", &SnapshotResponse{Chain: []*Block{signed(9, synth(300)), signed(10, synth(1<<20))},
			Finalization: randomCert(r), Sets: []*ValidatorSetDesc{randomDesc(r)}}, 300 - 8 + 1<<20 - 8},
		{"batch-announce", &BatchAnnounce{Origin: 3, Digest: [32]byte{1}, Body: synth(16 << 10)}, 16<<10 - 8},
		{"batch-announce/ack", &BatchAnnounce{Origin: 3, Digest: [32]byte{1}}, 0},
		{"batch-request", &BatchRequest{Digest: [32]byte{2}}, 0},
		{"batch-response", &BatchResponse{Digest: [32]byte{3}, Body: synth(16 << 10)}, 16<<10 - 8},
		{"batch-response/bytes", &BatchResponse{Digest: [32]byte{3}, Body: BytesPayload(randomBytes(r, RefMin))}, 0},
		{"block-request", &BlockRequest{Round: 11, ID: BlockID{4}}, 0},
	}
	kinds := make(map[MsgKind]bool)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			kinds[m.Kind()] = true
			enc := mustEncode(m)
			size := EncodedSize(m)
			if size != len(enc) {
				t.Fatalf("EncodedSize %d, encoded %d", size, len(enc))
			}
			head, _, err := AppendMessageVec(nil, m)
			if err != nil {
				t.Fatal(err)
			}
			if gotHead, gotSize := VecHeadSize(m); gotHead != len(head) || gotSize != size {
				t.Fatalf("VecHeadSize (%d, %d), head %d bytes of %d", gotHead, gotSize, len(head), size)
			}
			if got := WireSize(m) - size; got != tc.synth {
				t.Fatalf("WireSize - EncodedSize = %d, want Σ(SynthSize-8) = %d", got, tc.synth)
			}
			if n := testing.AllocsPerRun(10, func() {
				_, _ = VecHeadSize(m)
				_ = WireSize(m)
				_ = EncodedSize(m)
			}); n != 0 {
				t.Fatalf("sizing allocates %.0f times", n)
			}
		})
	}
	if len(kinds) != NumMsgKinds-1 {
		t.Fatalf("the table covers %d of the %d message kinds", len(kinds), NumMsgKinds-1)
	}
}
