package types

import "fmt"

// MsgKind tags the wire type of a consensus message.
type MsgKind uint8

const (
	// MsgProposal carries a block together with its parent's credentials.
	// Used by every engine (HotStuff reads ParentNotarization as its QC).
	MsgProposal MsgKind = iota + 1
	// MsgVote carries one or more votes (Banyan bundles a fast vote with the
	// first notarization vote of a round, Algorithm 1 line 39).
	MsgVote
	// MsgCert broadcasts a certificate (finalization, fast-finalization, or
	// a bare notarization).
	MsgCert
	// MsgAdvance is Banyan's round-advance broadcast: the notarization and
	// unlock proof of the block that closed the round (Addition 1, line 50).
	MsgAdvance
	// Byte 5 is retired (it carried a HotStuff pacemaker message) and stays
	// unused: the WAL decodes old inbound records by kind, so no kind may
	// move to another byte.
	_
	// MsgSyncRequest asks peers for the finalized chain segment a lagging
	// replica is missing (the catch-up subprotocol; production ICC has an
	// equivalent state-sync component the paper leaves out of scope).
	MsgSyncRequest
	// MsgSyncResponse returns finalized blocks plus a finalization
	// certificate proving the segment.
	MsgSyncResponse
	// MsgSnapshotRequest asks one peer for its finalized-window snapshot;
	// sent by a replica whose missing prefix no peer can serve via
	// MsgSyncRequest (fresh join, disk loss, or a deep-pruned cluster).
	MsgSnapshotRequest
	// MsgSnapshotResponse returns a finalized chain window plus the
	// finalization certificate that anchors it; the requester trusts
	// nothing in it until the certificate passes quorum verification.
	MsgSnapshotResponse
	// MsgBatchAnnounce carries one disseminated batch body from its origin
	// to the cluster, off the consensus path; an empty-body announce sent
	// back to the origin doubles as an availability ack.
	MsgBatchAnnounce
	// MsgBatchRequest asks one peer for a batch body by digest (the
	// fetch-on-miss path of delivery gating).
	MsgBatchRequest
	// MsgBatchResponse returns a requested batch body; the digest makes it
	// self-certifying, so any peer may serve it.
	MsgBatchResponse
	// MsgBlockRequest asks one peer for the body of a block the requester
	// knows only by header or by votes (the pull path behind header
	// relays); the answer is a full relayed MsgProposal.
	MsgBlockRequest
)

// NumMsgKinds bounds the MsgKind values: a table indexed by kind has this
// many entries, entry 0 and the retired entry 5 naming no kind.
const NumMsgKinds = int(MsgBlockRequest) + 1

func (k MsgKind) String() string {
	switch k {
	case MsgProposal:
		return "proposal"
	case MsgVote:
		return "vote"
	case MsgCert:
		return "cert"
	case MsgAdvance:
		return "advance"
	case MsgSyncRequest:
		return "sync-request"
	case MsgSyncResponse:
		return "sync-response"
	case MsgSnapshotRequest:
		return "snapshot-request"
	case MsgSnapshotResponse:
		return "snapshot-response"
	case MsgBatchAnnounce:
		return "batch-announce"
	case MsgBatchRequest:
		return "batch-request"
	case MsgBatchResponse:
		return "batch-response"
	case MsgBlockRequest:
		return "block-request"
	default:
		return fmt.Sprintf("MsgKind(%d)", uint8(k))
	}
}

// Message is the interface implemented by everything exchanged between
// replicas. Its wire layout is written once, in the encoder (encode.go);
// every size of a message is a counting pass of that encoder: EncodedSize,
// WireSize and VecHeadSize.
type Message interface {
	Kind() MsgKind
}

// Proposal carries a block proposal. It has two forms. The body form
// (Block set) is what a proposer broadcasts and what a BlockRequest is
// answered with. The header form (Header set, Block nil) is the relay of
// Algorithm 1 line 35: a replica that votes for a block re-broadcasts the
// block's signed header with the same parent credentials, never the
// payload — a body crosses each link once, proposer to replica, and a
// replica the proposer's copy missed pulls it with a BlockRequest.
type Proposal struct {
	Block *Block
	// Header is the block's signed header, set instead of Block on a
	// header relay. It re-hashes to the block's ID, so the credentials
	// below bind to the same block the body form would carry.
	Header *SignedHeader
	// ParentNotarization proves the parent was notarized. Nil when the
	// parent is the genesis block. HotStuff uses this field as the block's
	// justify QC.
	ParentNotarization *Certificate
	// ParentUnlock proves the parent was unlocked (Banyan, Addition 2).
	// Nil when the parent is genesis or explicitly finalized.
	ParentUnlock *UnlockProof
	// FastVote is the proposer's own fast vote for the block; required when
	// the block has rank 0 (Algorithm 2 line 63, Addition 2).
	FastVote *Vote
	// Relayed marks a forwarded copy rather than the original proposal:
	// every header relay, and the body form sent in answer to a
	// BlockRequest.
	Relayed bool
}

func (*Proposal) Kind() MsgKind { return MsgProposal }

// headerForm returns the signed header of a header-form proposal, nil
// for the body form (Block wins should both be set).
func (p *Proposal) headerForm() *SignedHeader {
	if p.Block != nil {
		return nil
	}
	return p.Header
}

// VoteMsg carries one or more votes from a single replica.
type VoteMsg struct {
	Votes []Vote
}

func (*VoteMsg) Kind() MsgKind { return MsgVote }

// CertMsg broadcasts a certificate on its own.
type CertMsg struct {
	Cert *Certificate
}

func (*CertMsg) Kind() MsgKind { return MsgCert }

// Advance is Banyan's end-of-round broadcast: the notarization of the
// round's notarized-and-unlocked block plus its unlock proof, guaranteeing
// every honest replica can enter the next round (Addition 1).
type Advance struct {
	Notarization *Certificate
	Unlock       *UnlockProof
}

func (*Advance) Kind() MsgKind { return MsgAdvance }

// SyncRequest asks peers for finalized blocks in rounds [From, To]. A
// replica that detects it is behind (a finalization certificate for a
// round it cannot connect to its tree) unicasts one to one peer at a
// time, re-sends it to the next peer when that one stays silent, and
// repeats until caught up.
// SyncRequest stays comparable (tests use ==).
type SyncRequest struct {
	From Round
	To   Round
}

// Kind implements Message.
func (*SyncRequest) Kind() MsgKind { return MsgSyncRequest }

// SyncResponse carries a finalized chain segment (ascending rounds) and
// the responder's latest finalization certificate, which transitively
// proves every block in the segment once the requester's tree connects.
type SyncResponse struct {
	Blocks       []*Block
	Finalization *Certificate
}

// Kind implements Message.
func (*SyncResponse) Kind() MsgKind { return MsgSyncResponse }

// MaxSyncBlocks bounds the blocks in one SyncResponse; requesters iterate.
// A responder also stops adding blocks before the response's encoding
// would pass MaxFrame, so large blocks make for shorter segments.
const MaxSyncBlocks = 64

// MaxFrame bounds one message's encoding (EncodedSize). A transport
// refuses to send a longer message, and a receiver closes the connection
// a longer frame arrives on.
const MaxFrame = 32 << 20

// SnapshotRequest asks a single peer for its finalized-window snapshot.
// Have is the requester's finalized round; a peer replies only when its
// window tip is strictly ahead. Unlike SyncRequest it is always unicast —
// the fetch scheduler (internal/fetch) rotates peers on timeout
// instead of fanning out.
// SnapshotRequest stays comparable (tests use ==).
type SnapshotRequest struct {
	Have Round
}

// Kind implements Message.
func (*SnapshotRequest) Kind() MsgKind { return MsgSnapshotRequest }

// SnapshotResponse carries the responder's finalized chain window
// (ascending, contiguous rounds ending at its window tip) and a
// finalization certificate at or above the tip. The requester verifies
// the certificate against the quorum before adopting anything — the
// certificate, not the sender, is the trust anchor.
//
// Sets is the responder's validator-set history (ascending epochs,
// genesis first): joiners bootstrap membership and state together. The
// requester checks the history chains structurally from its own trusted
// prefix before verifying the certificate against the final set.
type SnapshotResponse struct {
	Chain        []*Block
	Finalization *Certificate
	Sets         []*ValidatorSetDesc
}

// Kind implements Message.
func (*SnapshotResponse) Kind() MsgKind { return MsgSnapshotResponse }

// MaxSnapshotBlocks bounds the window in one SnapshotResponse. Windows
// are PruneKeep-sized (default 16), so this is generous headroom rather
// than a pagination unit.
const MaxSnapshotBlocks = 1024

// MaxBatchRefs bounds the digest list of one payload; the decoder rejects
// anything larger so a hostile proposal cannot force a huge allocation.
const MaxBatchRefs = 1 << 16

// BatchAnnounce pushes one batch body from its origin replica to the
// cluster, continuously and off the consensus path. The digest is the
// body's Payload digest, making the message self-certifying: receivers
// verify body-against-digest and ignore the sender identity. An announce
// with an empty body, unicast back to the origin, is the availability
// ack the origin counts before referencing the batch from a proposal.
// WireSize bills the body at its logical size: this is where the
// bandwidth cost of dissemination lives, instead of on the proposer's
// uplink, whose digest-list payload stays a few bytes per batch.
type BatchAnnounce struct {
	Origin ReplicaID
	Digest [32]byte
	Body   Payload
}

// Kind implements Message.
func (*BatchAnnounce) Kind() MsgKind { return MsgBatchAnnounce }

// IsAck reports whether the announce is an empty-body availability ack.
func (m *BatchAnnounce) IsAck() bool { return m.Body.Size() == 0 }

// BatchRequest asks one peer for a batch body by digest. Like
// SnapshotRequest it is always unicast — the dissem fetch scheduler
// rotates peers on timeout instead of fanning out. It stays comparable
// (tests use ==).
type BatchRequest struct {
	Digest [32]byte
}

// Kind implements Message.
func (*BatchRequest) Kind() MsgKind { return MsgBatchRequest }

// BatchResponse returns a requested batch body. The requester verifies
// the body digests to the requested value before storing it; a mismatch
// is dropped and the fetch rotates to the next peer.
type BatchResponse struct {
	Digest [32]byte
	Body   Payload
}

// Kind implements Message.
func (*BatchResponse) Kind() MsgKind { return MsgBatchResponse }

// BlockRequest asks one peer for the body of the round-Round block ID. A
// replica sends it when it has heard of the block — a header relay or a
// vote named it — but the proposer's copy is overdue; the peer answers
// with the body-form Proposal{Relayed: true}, or stays silent when it
// does not hold the block. Always
// unicast; it stays comparable (tests use ==).
type BlockRequest struct {
	Round Round
	ID    BlockID
}

// Kind implements Message.
func (*BlockRequest) Kind() MsgKind { return MsgBlockRequest }
