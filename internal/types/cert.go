package types

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// BlockHeader is the hashed portion of a block. Headers appear on the wire
// inside unlock proofs, where the verifier needs the rank of a voted block
// without necessarily holding the block itself: the header re-hashes to the
// BlockID the votes name, so the rank claim is bound by collision
// resistance.
type BlockHeader struct {
	Round Round
	// Epoch is the membership epoch the block was proposed under: the
	// epoch of the validator set in effect at Round. It is part of the
	// hashed header, so a block cannot be replayed under a different
	// epoch's quorum rules; receivers validate it against their own
	// membership history for the round. Genesis and the baseline engines
	// (hotstuff/streamlet/icc) stay at epoch 0 forever.
	Epoch         uint32
	Proposer      ReplicaID
	Rank          Rank
	Parent        BlockID
	PayloadDigest [32]byte
}

// ID computes the block ID this header hashes to: the ID of every block
// with this header (Block.ID).
func (h BlockHeader) ID() BlockID {
	var hdr [8 + 4 + 2 + 2 + 32 + 32]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(h.Round))
	binary.LittleEndian.PutUint32(hdr[8:12], h.Epoch)
	binary.LittleEndian.PutUint16(hdr[12:14], uint16(h.Proposer))
	binary.LittleEndian.PutUint16(hdr[14:16], uint16(h.Rank))
	copy(hdr[16:48], h.Parent[:])
	copy(hdr[48:80], h.PayloadDigest[:])
	hash := sha256.New()
	hash.Write([]byte("banyan/block/v2"))
	hash.Write(hdr[:])
	var id BlockID
	hash.Sum(id[:0])
	return id
}

// Header returns the block's header.
func (b *Block) Header() BlockHeader {
	b.ID()
	return b.BlockHeader
}

// SignedHeader is a block without its body: the hashed header plus the
// proposer's signature over the ID it hashes to. It is what a header
// relay carries (Proposal.Header): enough to authenticate the block's
// existence, rank and parent, and to name the body in a BlockRequest,
// without hashing or moving the payload.
type SignedHeader struct {
	BlockHeader
	Signature []byte // proposer's signature over ID()

	id     BlockID // cached hash, same contract as Block.ID
	hashed bool
}

// ID returns the block ID the header hashes to, computed once.
func (h *SignedHeader) ID() BlockID {
	if !h.hashed {
		h.id = h.BlockHeader.ID()
		h.hashed = true
	}
	return h.id
}

// SignedHeader returns the block's signed header: the block itself
// without its body, shared by every header relay of the block at no
// allocation. It is the block's own, so no holder writes into it; it is
// complete once the block is hashed, which a block shared between
// goroutines is before it is shared (Block.ID).
func (b *Block) SignedHeader() *SignedHeader {
	b.ID()
	return &b.signedHeader
}

// CertKind distinguishes the aggregate certificates of the protocol.
type CertKind uint8

const (
	// CertNotarization aggregates NotarizationQuorum notarization votes
	// (paper: "notarization", N in Figure 3).
	CertNotarization CertKind = iota + 1
	// CertFinalization aggregates FinalizationQuorum finalization votes
	// ("finalization", F in Figure 3) — SP-finalization.
	CertFinalization
	// CertFastFinalization aggregates FastQuorum fast votes for a rank-0
	// block (Addition 4) — FP-finalization.
	CertFastFinalization
)

func (k CertKind) String() string {
	switch k {
	case CertNotarization:
		return "notarization"
	case CertFinalization:
		return "finalization"
	case CertFastFinalization:
		return "fast-finalization"
	default:
		return fmt.Sprintf("CertKind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined certificate kind.
func (k CertKind) Valid() bool { return k >= CertNotarization && k <= CertFastFinalization }

// VoteKind returns the kind of vote the certificate aggregates.
func (k CertKind) VoteKind() VoteKind {
	switch k {
	case CertNotarization:
		return VoteNotarize
	case CertFinalization:
		return VoteFinalize
	case CertFastFinalization:
		return VoteFast
	default:
		return 0
	}
}

// Certificate is an aggregate of quorum-many votes for one block. The
// paper aggregates votes into BLS multi-signatures; this implementation
// substitutes a signer list plus one signature per signer (see
// ARCHITECTURE.md, "Deviations from the paper") — same quorum semantics,
// transferable, and the certificate size still grows with the quorum,
// preserving the message-size behaviour the evaluation depends on.
//
// Finalization and fast-finalization certificates aggregate one kind of
// vote, so every signature covers Digest(). A notarization certificate
// may mix two: a replica's first vote of a round is a single fast vote
// that is also its notarization vote for the same block (Definition 6.2 —
// an honest fast vote is only ever cast together with that notarization
// vote), so its signature covers the fast-vote digest. Fast marks those
// signers. The aggregate is over two messages at most, which is what a
// BLS deployment would carry as a two-message aggregate signature.
//
// Signers may come in any order: the engine lists them in the order their
// votes arrived, because its certificates are capped prefixes of its vote
// logs rather than copies. A certificate is immutable once published —
// it may share its Signers and Sigs arrays with the log it came from and
// with every receiver it was handed to — so no holder writes into them.
type Certificate struct {
	Kind    CertKind
	Round   Round
	Block   BlockID
	Signers []ReplicaID // distinct, in any order
	Sigs    [][]byte    // Sigs[i] is Signers[i]'s signature over SignerDigests()[FastBit(i)]
	// Fast is a bitmap over signer positions, notarization certificates
	// only: bit i set means Sigs[i] covers the fast-vote digest for
	// (Round, Block) instead of the notarization-vote digest. Empty when
	// no signer is marked; otherwise exactly ⌈len(Signers)/8⌉ bytes with
	// the padding bits clear.
	Fast []byte
}

// NewCertificate assembles a certificate from collected votes for the
// given block. Votes must be of the kind the certificate aggregates; a
// notarization certificate also takes fast votes, and when a voter
// supplied both it keeps the fast one, so two replicas holding the same
// voters build the same certificate. Votes for other blocks or rounds are
// rejected.
func NewCertificate(kind CertKind, round Round, block BlockID, votes []Vote) (*Certificate, error) {
	want := kind.VoteKind()
	mixed := kind == CertNotarization
	sorted := make([]Vote, 0, len(votes))
	for _, v := range votes {
		if (v.Kind != want && !(mixed && v.Kind == VoteFast)) || v.Round != round || v.Block != block {
			return nil, fmt.Errorf("certificate: vote %v does not match %s for round %d block %s",
				v, kind, round, block)
		}
		sorted = append(sorted, v)
	}
	// By voter, a voter's fast vote ahead of its other one, so the
	// duplicate dropped below is never the fast vote.
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Voter != sorted[j].Voter {
			return sorted[i].Voter < sorted[j].Voter
		}
		return sorted[i].Kind == VoteFast && sorted[j].Kind != VoteFast
	})
	c := &Certificate{
		Kind: kind, Round: round, Block: block,
		Signers: make([]ReplicaID, 0, len(sorted)),
		Sigs:    make([][]byte, 0, len(sorted)),
	}
	for _, v := range sorted {
		if n := len(c.Signers); n > 0 && c.Signers[n-1] == v.Voter {
			continue
		}
		if mixed && v.Kind == VoteFast {
			if c.Fast == nil {
				c.Fast = make([]byte, (len(sorted)+7)/8)
			}
			c.Fast[len(c.Signers)/8] |= 1 << (len(c.Signers) % 8)
		}
		c.Signers = append(c.Signers, v.Voter)
		c.Sigs = append(c.Sigs, v.Signature)
	}
	c.Fast = c.Fast[:min(len(c.Fast), (len(c.Signers)+7)/8)]
	return c, nil
}

// Digest returns the vote digest of the kind the certificate aggregates:
// what every signature covers, except those a notarization certificate
// marks in Fast.
func (c *Certificate) Digest() [32]byte {
	return VoteDigest(c.Kind.VoteKind(), c.Round, c.Block)
}

// FastBit is 1 if Signers[i] is marked as having signed the fast-vote
// digest, 0 otherwise: Sigs[i] covers SignerDigests()[FastBit(i)].
func (c *Certificate) FastBit(i int) int {
	if i/8 >= len(c.Fast) {
		return 0
	}
	return int(c.Fast[i/8] >> (i % 8) & 1)
}

// FastSigned reports whether Signers[i] is marked as a fast voter.
func (c *Certificate) FastSigned(i int) bool { return c.FastBit(i) == 1 }

// SignerDigests returns the two digests a certificate's signatures can
// cover, indexed by FastBit: Digest() for unmarked signers, the fast-vote
// digest for marked ones (computed only when there are any).
func (c *Certificate) SignerDigests() (d [2][32]byte) {
	d[0] = c.Digest()
	if len(c.Fast) > 0 {
		d[1] = VoteDigest(VoteFast, c.Round, c.Block)
	}
	return d
}

// CheckShape verifies the structural well-formedness of the certificate:
// distinct signers, in any order, with IDs below n and one signature
// each, meeting the given quorum, and a Fast marker only on a
// notarization certificate, sized to the signer list, with no bit set
// beyond it. It allocates nothing up to n = 256. Signature verification
// is done by crypto.VerifyCert.
func (c *Certificate) CheckShape(n, quorum int) error {
	if !c.Kind.Valid() {
		return fmt.Errorf("certificate: invalid kind %d", c.Kind)
	}
	if len(c.Signers) != len(c.Sigs) {
		return fmt.Errorf("certificate: %d signers but %d signatures", len(c.Signers), len(c.Sigs))
	}
	if len(c.Signers) < quorum {
		return fmt.Errorf("certificate: %d signers below quorum %d", len(c.Signers), quorum)
	}
	// Up to 256 replicas the signers seen are a bitset on the stack.
	var buf [4]uint64
	seen := VoterSet(buf[:])
	if n > 64*len(buf) {
		seen = NewVoterSet(n)
	}
	for i, s := range c.Signers {
		if int(s) >= n {
			return fmt.Errorf("certificate: signer %d out of range (n=%d)", s, n)
		}
		if seen.Has(s) {
			return fmt.Errorf("certificate: signer %d named twice, again at index %d", s, i)
		}
		seen.Add(s)
	}
	if len(c.Fast) == 0 {
		return nil
	}
	if c.Kind != CertNotarization {
		return fmt.Errorf("certificate: fast-vote marker on a %s certificate", c.Kind)
	}
	if len(c.Fast) != (len(c.Signers)+7)/8 {
		return fmt.Errorf("certificate: %d-byte fast-vote marker for %d signers", len(c.Fast), len(c.Signers))
	}
	if pad := len(c.Signers) % 8; pad != 0 && c.Fast[len(c.Fast)-1]>>pad != 0 {
		return fmt.Errorf("certificate: fast-vote marker names a non-signer")
	}
	return nil
}

func (c *Certificate) String() string {
	return fmt.Sprintf("%s{r=%d b=%s |signers|=%d}", c.Kind, c.Round, c.Block, len(c.Signers))
}

// UnlockEntry groups the fast votes an unlock proof contains for one block,
// together with that block's header (which binds the block's rank).
type UnlockEntry struct {
	Header BlockHeader
	Voters []ReplicaID // ascending, no duplicates
	Sigs   [][]byte    // fast-vote signatures, aligned with Voters
}

// UnlockProof is the transferable evidence that a block is unlocked
// (Definition 7.7): a collection of fast votes that satisfies one of the
// two conditions of Definition 7.6 from any verifier's standpoint.
type UnlockProof struct {
	Round Round
	Block BlockID // block claimed unlocked; ignored when All is set
	// All marks a Condition-2 proof: every current and future block of the
	// round is unlocked.
	All     bool
	Entries []UnlockEntry
}

// Evaluate re-runs Definition 7.6 over the proof's own votes and reports
// whether they establish the claim, assuming all contained votes verify
// (signature checking is crypto.VerifyUnlockProof's job). threshold is
// Params.UnlockThreshold() = f + p.
//
// Condition 1: |supp(b) ∪ supp(nonLeaderBlocks)| > f+p unlocks b.
// Condition 2: |supp(nonMaxBlocks)| > f+p unlocks every block of the round,
// under the strict reading of max (Cond2Support). Both are evaluated by
// the functions the engine evaluates its own ledgers with.
func (u *UnlockProof) Evaluate(threshold int) bool {
	words := 0 // of a VoterSet holding the highest voter ID
	for _, e := range u.Entries {
		if e.Header.Round != u.Round {
			return false
		}
		if len(e.Voters) != len(e.Sigs) {
			return false
		}
		for i := 1; i < len(e.Voters); i++ {
			if e.Voters[i-1] >= e.Voters[i] {
				return false
			}
		}
		if n := len(e.Voters); n > 0 {
			words = max(words, int(e.Voters[n-1])/64+1)
		}
	}
	// One backing array holds supp(Block), for a Condition-1 claim, and
	// then every entry's voter set; a proof with a few entries over a
	// committee of up to 128 stays on the stack.
	var (
		wordBuf [8]uint64
		setBuf  [3]SupportSet
	)
	backing, sets := wordBuf[:], setBuf[:0]
	if need := (len(u.Entries) + 1) * words; need > len(backing) {
		backing = make([]uint64, need)
	}
	own := VoterSet(backing[:words])
	for i, e := range u.Entries {
		voters := VoterSet(backing[(i+1)*words:][:words])
		for _, v := range e.Voters {
			voters.Add(v)
		}
		if !u.All && e.Header.Rank == 0 && e.Header.ID() == u.Block {
			for _, v := range e.Voters {
				own.Add(v)
			}
		}
		sets = append(sets, SupportSet{Leader: e.Header.Rank == 0, Voters: voters})
	}
	if u.All {
		return Cond2Support(sets) > threshold
	}
	return Cond1Support(own, sets) > threshold
}

// VoteCount returns the total number of fast votes carried by the proof.
func (u *UnlockProof) VoteCount() int {
	n := 0
	for _, e := range u.Entries {
		n += len(e.Voters)
	}
	return n
}

func (u *UnlockProof) String() string {
	if u == nil {
		return "unlock{nil}"
	}
	return fmt.Sprintf("unlock{r=%d b=%s all=%v votes=%d}", u.Round, u.Block, u.All, u.VoteCount())
}
