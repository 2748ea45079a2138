package types

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
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
type Block struct {
	Round Round
	// Epoch is the membership epoch the block was proposed under: the
	// epoch of the validator set in effect at Round. It is part of the
	// hashed header, so a block cannot be replayed under a different
	// epoch's quorum rules; receivers validate it against their own
	// membership history for the round. Genesis and the baseline engines
	// (hotstuff/streamlet/icc) stay at epoch 0 forever.
	Epoch     uint32
	Proposer  ReplicaID
	Rank      Rank
	Parent    BlockID
	Payload   Payload
	Signature []byte // proposer's signature over ID()

	id     BlockID // cached hash
	hashed bool
}

// NewBlock assembles an unsigned block. The signature is attached by the
// proposer via crypto.Signer before broadcast.
func NewBlock(round Round, proposer ReplicaID, rank Rank, parent BlockID, payload Payload) *Block {
	return &Block{
		Round:    round,
		Proposer: proposer,
		Rank:     rank,
		Parent:   parent,
		Payload:  payload,
	}
}

// Genesis returns the canonical genesis block shared by all replicas. It is
// notarized, finalized and unlocked by definition (paper, section 8.1).
func Genesis() *Block {
	return &Block{
		Round:    0,
		Proposer: NoReplica,
		Rank:     0,
		Parent:   ZeroBlockID,
		Payload:  Payload{},
	}
}

// ID returns the block's SHA-256 header digest, computing and caching it on
// first use. The digest covers round, epoch, proposer, rank, parent and the
// payload digest — not the signature, which signs this digest.
//
// Caching contract: blocks are immutable once constructed (NewBlock +
// SignBlock, or wire decode), and the first ID call must happen-before
// any concurrent use of the block. Hosts satisfy this by construction —
// a proposer hashes when signing, and a receiver's preverification stage
// hashes (off the consensus goroutine, with a happens-before edge on the
// hand-off) before the engine sees the block — so the engine, encoder,
// and journal all read a warm cache instead of re-running SHA-256 at
// propose, vote, certify, encode, and journal time.
func (b *Block) ID() BlockID {
	if !b.hashed {
		b.id = b.computeID()
		b.hashed = true
	}
	return b.id
}

func (b *Block) computeID() BlockID {
	// Layout must stay in lockstep with BlockHeader.ID (cert.go): unlock
	// proofs carry bare headers that must re-hash to the same IDs.
	var hdr [8 + 4 + 2 + 2 + 32 + 32]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(b.Round))
	binary.LittleEndian.PutUint32(hdr[8:12], b.Epoch)
	binary.LittleEndian.PutUint16(hdr[12:14], uint16(b.Proposer))
	binary.LittleEndian.PutUint16(hdr[14:16], uint16(b.Rank))
	copy(hdr[16:48], b.Parent[:])
	ph := b.Payload.Digest()
	copy(hdr[48:80], ph[:])
	h := sha256.New()
	h.Write([]byte("banyan/block/v2"))
	h.Write(hdr[:])
	var id BlockID
	h.Sum(id[:0])
	return id
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

// HeaderEqualExceptPayload reports whether two blocks agree on everything
// except the payload — used by equivocation tests.
func (b *Block) HeaderEqualExceptPayload(other *Block) bool {
	return b.Round == other.Round &&
		b.Proposer == other.Proposer &&
		b.Rank == other.Rank &&
		bytes.Equal(b.Parent[:], other.Parent[:])
}
