package types

import (
	"bytes"
	"encoding/hex"
	"fmt"
)

// BlockID is the SHA-256 digest of a block header. It uniquely identifies a
// block across the cluster.
type BlockID [32]byte

// ZeroBlockID is the all-zero block ID, used as the parent of the genesis
// block.
var ZeroBlockID BlockID

// String returns a short hex prefix of the ID for logs.
func (id BlockID) String() string {
	return hex.EncodeToString(id[:6])
}

// IsZero reports whether the ID is the all-zero sentinel.
func (id BlockID) IsZero() bool { return id == ZeroBlockID }

// Compare orders IDs bytewise: the one tie-break order wherever several
// blocks of a round are walked.
func (id BlockID) Compare(other BlockID) int { return bytes.Compare(id[:], other[:]) }

// Block is a proposal for one round of the protocol. The chain payload is an
// opaque byte string (batched transactions in the SMR examples, a synthetic
// bit vector in the benchmark workloads, mirroring paper section 9.2).
//
// The Rank field is the proposer's rank in the round's leader permutation.
// It is carried in the block for convenience and must be validated against
// the leader schedule of the round's validator set by every receiver.
//
// A block is its signed header plus its body: the header fields (Round,
// Epoch, Proposer, Rank, Parent, PayloadDigest), the Signature and the ID
// cache are those of the embedded SignedHeader, which SignedHeader hands
// to every header relay of the block without a copy. PayloadDigest is
// filled in when the block is hashed (ID).
type Block struct {
	signedHeader
	Payload Payload
}

// signedHeader names the SignedHeader a Block embeds, so that the field
// does not take the name of the SignedHeader method.
type signedHeader = SignedHeader

// NewBlock assembles an unsigned block. The signature is attached by the
// proposer via crypto.Signer before broadcast.
func NewBlock(round Round, proposer ReplicaID, rank Rank, parent BlockID, payload Payload) *Block {
	b := &Block{Payload: payload}
	b.Round, b.Proposer, b.Rank, b.Parent = round, proposer, rank, parent
	return b
}

// Genesis returns the canonical genesis block shared by all replicas. It is
// notarized, finalized and unlocked by definition (paper, section 8.1).
func Genesis() *Block {
	return NewBlock(0, NoReplica, 0, ZeroBlockID, Payload{})
}

// ID returns the block's SHA-256 header digest, computing and caching it on
// first use, with the payload digest it covers. The digest covers round,
// epoch, proposer, rank, parent and the payload digest — not the
// signature, which signs this digest.
//
// Caching contract: blocks are immutable once constructed (NewBlock +
// SignBlock, or wire decode), and the first ID call must happen-before
// any concurrent use of the block. Hosts satisfy this by construction —
// a proposer hashes when signing, and a decoded block belongs to the one
// receiver whose engine goroutine hashes it first — so the engine,
// encoder, and journal all read a warm cache instead of re-running
// SHA-256 at propose, vote, certify, encode, and journal time, and a
// block's signed header is complete before the block is shared.
func (b *Block) ID() BlockID {
	if !b.hashed {
		b.PayloadDigest = b.Payload.Digest()
		b.id = b.BlockHeader.ID()
		b.hashed = true
	}
	return b.id
}

// Equal reports whether two blocks have the same identity (header hash).
func (b *Block) Equal(other *Block) bool {
	if b == nil || other == nil {
		return b == other
	}
	return b.ID() == other.ID()
}

func (b *Block) String() string {
	return fmt.Sprintf("block{r=%d e=%d id=%s rank=%d by=%d parent=%s len=%d}",
		b.Round, b.Epoch, b.ID(), b.Rank, b.Proposer, b.Parent, b.Payload.Size())
}

// IsGenesis reports whether the block is the canonical genesis block.
func (b *Block) IsGenesis() bool {
	return b.Round == 0 && b.Parent.IsZero() && b.Proposer == NoReplica
}
