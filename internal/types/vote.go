package types

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// VoteKind distinguishes the three vote flavours of the Banyan protocol.
// Baseline protocols reuse the same structure (HotStuff votes are
// VoteNotarize on that engine's blocks, etc.).
type VoteKind uint8

const (
	// VoteNotarize is a bare notarization vote: the voter validated the
	// block (paper section 4, "Notarization"). Banyan signs one only for a
	// block it did not fast-vote — see VoteFast.
	VoteNotarize VoteKind = iota + 1
	// VoteFinalize is a finalization vote: the voter notarization-voted for
	// no other block in the round (paper section 4, "Finalization").
	VoteFinalize
	// VoteFast is a Banyan fast vote: cast for the first block the voter
	// notarization-votes for in a round (Definition 6.2). Because it is
	// only ever cast together with that notarization vote, it is sent as
	// that vote too: one signature, which receivers and notarization
	// certificates count as the voter's notarization vote for the block.
	VoteFast
)

func (k VoteKind) String() string {
	switch k {
	case VoteNotarize:
		return "notarize"
	case VoteFinalize:
		return "finalize"
	case VoteFast:
		return "fast"
	default:
		return fmt.Sprintf("VoteKind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined vote kind.
func (k VoteKind) Valid() bool { return k >= VoteNotarize && k <= VoteFast }

// Vote is one replica's signed statement about a block in a round.
type Vote struct {
	Kind      VoteKind
	Round     Round
	Block     BlockID
	Voter     ReplicaID
	Signature []byte
}

// VoteDigest is the message digest a voter signs. It covers kind, round and
// block; the voter's identity is bound by its signing key, so it is not part
// of the digest. This keeps all votes of one kind in a certificate on a
// shared digest, which is what makes signature aggregation possible: one
// digest per certificate, two at most for a notarization (its fast voters
// signed the VoteFast digest, see Certificate.Fast).
func VoteDigest(kind VoteKind, round Round, block BlockID) [32]byte {
	var buf [1 + 8 + 32]byte
	buf[0] = byte(kind)
	binary.LittleEndian.PutUint64(buf[1:9], uint64(round))
	copy(buf[9:41], block[:])
	h := sha256.New()
	h.Write([]byte("banyan/vote/v1"))
	h.Write(buf[:])
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// Digest returns the digest this vote's signature covers.
func (v Vote) Digest() [32]byte { return VoteDigest(v.Kind, v.Round, v.Block) }

func (v Vote) String() string {
	return fmt.Sprintf("%s-vote{r=%d b=%s by=%d}", v.Kind, v.Round, v.Block, v.Voter)
}
