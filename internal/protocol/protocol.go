// Package protocol defines the contract between consensus engines and
// their hosts (the real-time node runtime and the discrete-event
// simulator).
//
// An Engine is a passive, deterministic state machine: hosts feed it
// events — start, inbound messages, timer fires — each stamped with the
// current time, and the engine returns a list of actions to perform. The
// engine never spawns goroutines, reads clocks, or touches the network, so
// the identical protocol code runs under wall-clock TCP deployments and
// under virtual-time simulation, and unit tests can drive it line by line.
// This is the property paper section 9.1 demands ("treat all protocols
// equally"): every protocol in this repository is hosted by the same
// runtime.
package protocol

import (
	"fmt"
	"time"

	"banyan/internal/types"
)

// TimerKind labels the purpose of a timer so engines can route fires.
type TimerKind uint8

const (
	// TimerPropose fires when this replica's proposal delay for a round
	// expires (Δ_prop(r) = 2Δ·r).
	TimerPropose TimerKind = iota + 1
	// TimerNotarize fires when the notarization delay for a rank expires
	// (Δ_notary(r) = 2Δ·r).
	TimerNotarize
	// TimerView fires when a Streamlet epoch ends.
	TimerView
	// TimerResend fires when a replica has been stuck in one round long
	// enough to suspect message loss; the engine rebroadcasts its round
	// state (votes, best block, certificates). The BFT model assumes
	// reliable links, but deployments see reconnects and drops — this is
	// the standard liveness hardening.
	TimerResend
	// TimerStateSync fires while a snapshot fetch is in flight; the engine
	// checks the per-peer deadline and retries the request against the next
	// peer in rotation if the current one went silent.
	TimerStateSync
	// TimerBatchFetch fires while a batch-body fetch is in flight
	// (delivery gating, internal/dissem); same deadline-check-and-rotate
	// discipline as TimerStateSync.
	TimerBatchFetch
	// TimerBodyPull fires when a block body this replica has heard of but
	// does not hold becomes overdue (Δ after the header relay or vote that
	// named it), and while the BlockRequest for it is in flight; same
	// deadline-check-and-rotate discipline as TimerBatchFetch.
	TimerBodyPull
	// TimerSuffixSync fires while a catch-up SyncRequest is in flight;
	// same deadline-check-and-rotate discipline as TimerStateSync.
	TimerSuffixSync
)

func (k TimerKind) String() string {
	switch k {
	case TimerPropose:
		return "propose"
	case TimerNotarize:
		return "notarize"
	case TimerView:
		return "view"
	case TimerResend:
		return "resend"
	case TimerStateSync:
		return "state-sync"
	case TimerBatchFetch:
		return "batch-fetch"
	case TimerBodyPull:
		return "body-pull"
	case TimerSuffixSync:
		return "suffix-sync"
	default:
		return fmt.Sprintf("TimerKind(%d)", uint8(k))
	}
}

// TimerID identifies a pending timer. Engines receive it back on fire and
// discard stale fires (e.g. from rounds already left).
type TimerID struct {
	Round types.Round
	Kind  TimerKind
	Rank  types.Rank
}

func (t TimerID) String() string {
	return fmt.Sprintf("timer{%s r=%d rank=%d}", t.Kind, t.Round, t.Rank)
}

// Action is an instruction from an engine to its host. The sealed marker
// keeps the set closed so hosts can switch exhaustively.
type Action interface{ isAction() }

// Broadcast sends a message to every other replica (best-effort broadcast;
// the sender does not loop the message back to itself — engines account
// for their own votes directly).
type Broadcast struct {
	Msg types.Message
}

// Send sends a message to a single replica.
type Send struct {
	To  types.ReplicaID
	Msg types.Message
}

// SetTimer asks the host to fire TimerID at absolute time At. Hosts must
// deliver fires with the same ID at-most-once per request; engines tolerate
// duplicates and staleness.
type SetTimer struct {
	ID TimerID
	At time.Time
}

// Commit reports newly finalized blocks in chain order (oldest first).
// Explicit describes how the last block of the batch was explicitly
// finalized; earlier blocks are implicitly finalized ancestors.
type Commit struct {
	Blocks   []*types.Block
	Explicit FinalizationMode
	// Bodies holds, under batch dissemination, the batch bodies of each
	// block's refs that delivery resolved, in ref order without the refs
	// it skips: Bodies[i] belongs to Blocks[i]. The bodies are shared, not
	// copied, and stay readable after the engine compacts its store. Nil
	// for a block without refs, and nil throughout when no block has any.
	Bodies [][]*types.Payload
}

// SafetyFault reports a detected safety violation (conflicting
// finalization). Hosts stop the replica; integration tests fail on it.
type SafetyFault struct {
	Err error
}

func (Broadcast) isAction()   {}
func (Send) isAction()        {}
func (SetTimer) isAction()    {}
func (Commit) isAction()      {}
func (SafetyFault) isAction() {}

// FinalizationMode says which path finalized a block.
type FinalizationMode uint8

const (
	// FinalizeSlow is ICC-style explicit finalization from finalization
	// votes (SP-finalization).
	FinalizeSlow FinalizationMode = iota + 1
	// FinalizeFast is Banyan's fast-path finalization from n-p fast votes
	// (FP-finalization).
	FinalizeFast
	// FinalizeIndirect means the block was finalized by a certificate
	// received from another replica or by a descendant's finalization.
	FinalizeIndirect
)

func (m FinalizationMode) String() string {
	switch m {
	case FinalizeSlow:
		return "slow"
	case FinalizeFast:
		return "fast"
	case FinalizeIndirect:
		return "indirect"
	default:
		return fmt.Sprintf("FinalizationMode(%d)", uint8(m))
	}
}

// Engine is a consensus protocol instance for one replica.
//
// Hosts guarantee single-threaded access: calls never overlap. All methods
// receive the host's current time and return the actions to execute, in
// order. A returned slice is valid until the engine's next Start,
// HandleMessage or HandleTimer call, which may reuse its backing array: a
// host consumes the actions, or copies them, before it calls in again.
type Engine interface {
	// ID is the replica this engine instance runs for.
	ID() types.ReplicaID
	// Protocol names the protocol ("banyan", "icc", "hotstuff", "streamlet").
	Protocol() string
	// Start boots the engine at time now (enter round 1 / view 1).
	Start(now time.Time) []Action
	// HandleMessage processes one inbound message from a peer.
	HandleMessage(from types.ReplicaID, msg types.Message, now time.Time) []Action
	// HandleTimer processes a timer fire previously requested via SetTimer.
	HandleTimer(id TimerID, now time.Time) []Action
	// Metrics returns protocol counters (fast/slow finalizations, rounds,
	// timeouts, ...) for the harness. Keys are engine-specific.
	Metrics() map[string]int64
}

// PayloadSource provides block payloads to proposing engines. The mempool
// package implements it for client transactions; the harness implements it
// for the paper's synthetic leader-generated bit vectors (section 9.2).
type PayloadSource interface {
	// NextPayload returns the payload for a block this replica is about to
	// propose in the given round.
	NextPayload(round types.Round) types.Payload
}

// PayloadFunc adapts a function to PayloadSource.
type PayloadFunc func(round types.Round) types.Payload

// NextPayload implements PayloadSource.
func (f PayloadFunc) NextPayload(round types.Round) types.Payload { return f(round) }

// EmptyPayloads is a PayloadSource producing empty payloads.
var EmptyPayloads PayloadSource = PayloadFunc(func(types.Round) types.Payload {
	return types.Payload{}
})
