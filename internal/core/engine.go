package core

import (
	"errors"
	"fmt"
	"time"

	"banyan/internal/blocktree"
	"banyan/internal/membership"
	"banyan/internal/obs"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Engine is the Banyan consensus state machine for one replica. It
// implements protocol.Engine; see the package comment for the protocol
// overview and config.go for wiring.
type Engine struct {
	cfg  Config
	tree *blocktree.Tree

	// history is the epoch-scoped validator-set sequence, starting from
	// the genesis set: every quorum size, leader rank, and certificate
	// check consults the set in effect at the relevant round. It grows
	// only when a ConfigChange block finalizes (applyChanges) or a
	// verified snapshot/checkpoint restores a longer prefix.
	history *membership.History

	round  types.Round // current round k
	rounds map[types.Round]*roundState
	// spare holds rounds retired below the finalized height, reset, for
	// getRound to reuse (retireRounds); retiredBelow is the floor they were
	// last retired under. The engine owns the list: what it holds does not
	// depend on the garbage collector.
	spare        []*roundState
	retiredBelow types.Round

	// extFinal holds explicit finalization certificates received from
	// peers, per round, applied by tryFinalize.
	extFinal map[types.Round]*types.Certificate

	// pendingCommit holds explicitly finalized blocks whose ancestor chain
	// is not yet complete locally; retried as blocks arrive.
	pendingCommit map[types.BlockID]protocol.FinalizationMode

	// Catch-up state: latestFinal is the highest-round finalization
	// certificate seen or formed (it anchors sync responses and proves
	// this replica behind); syncHigh is the highest round up to which the
	// tree holds a contiguous chain fetched by sync; catchupDirty marks
	// that new catch-up material arrived; syncProbe marks that the resend
	// timer wants a pull for possibly-missed finalizations even though no
	// certificate proves this replica behind.
	latestFinal  *types.Certificate
	epochHint    *types.Certificate
	syncHigh     types.Round
	catchupDirty bool
	syncProbe    bool

	// segments schedules suffix sync's SyncRequests, keyed by a segment's
	// first round; snapshots schedules snapshot fetches, keyed by the
	// target round. Each holds one key at a time, so catch-up asks one
	// peer at a time.
	segments  fetchClass[types.Round]
	snapshots fetchClass[types.Round]

	// Batch dissemination (Config.Dissem): delivQueue holds finalized
	// chains whose Commit is gated on batch-body availability — ordering
	// already decided, bytes possibly still in flight — and batchFetch
	// schedules the fetch-on-miss unicasts for the missing bodies.
	delivQueue []deliveryItem
	batchFetch fetchClass[[32]byte]

	// Body pulls (pull.go): wanted holds the blocks this replica has heard
	// of — by header relay or by vote — without holding their body, and
	// pulls schedules the BlockRequest unicasts for the overdue ones.
	wanted map[pullKey]*wantedBody
	pulls  fetchClass[pullKey]

	stopped bool
	fault   error

	// now caches the host-supplied clock of the entry point currently
	// being processed (Start/HandleMessage/HandleTimer), so internal
	// paths that do not thread a timestamp (onProposal, tryNotarize,
	// flushDelivery) can stamp observability events in the engine's
	// clock domain — virtual time under simulation, wall time live.
	now time.Time

	// replaying marks WAL recovery (see replay.go): every clause that
	// would create a new signature is suppressed, so replayed state can
	// only come from the journal itself.
	replaying bool

	// carry queues the payloads of own blocks that can never finalize —
	// an own block whose round finalized another — oldest first.
	// Proposals take from it before they ask Config.Payloads for anything
	// new (nextPayload): the source handed the payload out for good, so
	// dropping it here would lose it.
	// Exactly once holds because one block per round finalizes: no
	// finalized block can name the payload of a block its round excluded.
	// Under Config.Dissem nothing is carried: a batch stays in the store's
	// pool until a finalized block references it.
	carry []types.Payload

	// chainScratch backs chainRefs: the batch refs of a proposal's
	// unfinalized parent chain.
	chainScratch []types.BatchRef

	// acts backs the action list Start, HandleMessage and HandleTimer
	// return: the host consumes it before its next call (actions).
	acts []protocol.Action

	lastPrune types.Round

	met struct {
		roundsStarted int64
		proposals     int64
		relays        int64
		votesSent     int64
		advances      int64
		fastFinal     int64
		slowFinal     int64
		indirectFinal int64
		blocksCommit  int64
		bytesCommit   int64
		rejected      int64
		resends       int64
		ssServed      int64
		ssRejected    int64
		ssBytes       int64
		carried       int64
		batchServed   int64
		delivDropped  int64

		bodyPullsServed  int64
		bodyPullsRefused int64

		epochChanges int64
		epochHints   int64

		settledDropped       int64
		finalVotesSuppressed int64
		advancesSkipped      int64
	}
}

// deliveryItem is one finalized chain waiting for its batch bodies.
type deliveryItem struct {
	blocks []*types.Block
	mode   protocol.FinalizationMode
	// enq is when the chain entered the delivery queue (engine clock),
	// the start point of the delivery-wait histogram.
	enq time.Time
}

var _ protocol.Engine = (*Engine)(nil)

// New builds a Banyan engine from the configuration.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	history, err := cfg.genesisHistory()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:           cfg,
		history:       history,
		tree:          blocktree.New(),
		rounds:        make(map[types.Round]*roundState),
		extFinal:      make(map[types.Round]*types.Certificate),
		pendingCommit: make(map[types.BlockID]protocol.FinalizationMode),
		batchFetch: newFetchClass(cfg, batchFetchDeltas*cfg.Delta, protocol.TimerBatchFetch,
			func(d [32]byte) types.Message { return &types.BatchRequest{Digest: d} }),
		wanted: make(map[pullKey]*wantedBody),
		// A pulled body may be a whole block: it gets the body budget, a
		// batch the round-trip one.
		pulls: newFetchClass(cfg, bodyFetchDeltas*cfg.Delta, protocol.TimerBodyPull,
			func(k pullKey) types.Message { return &types.BlockRequest{Round: k.round, ID: k.id} }),
	}
	e.segments = newFetchClass(cfg, syncFetchDeltas*cfg.Delta, protocol.TimerSuffixSync, e.segmentRequest)
	e.segments.abandon = e.syncExpired
	// The peer serves its own window; the request only says what this
	// replica already has.
	e.snapshots = newFetchClass(cfg, snapshotFetchDeltas*cfg.Delta, protocol.TimerStateSync,
		func(types.Round) types.Message { return &types.SnapshotRequest{Have: e.tree.FinalizedRound()} })
	e.snapshots.abandon = e.snapshotReached
	e.pulls.abandon = e.pullExhausted
	e.batchFetch.abandon = e.batchUnneeded
	return e, nil
}

// setFor returns the validator set in effect at round r.
func (e *Engine) setFor(r types.Round) *membership.ValidatorSet {
	return e.history.SetForRound(r)
}

// ID implements protocol.Engine.
func (e *Engine) ID() types.ReplicaID { return e.cfg.Self }

// Protocol implements protocol.Engine.
func (e *Engine) Protocol() string {
	if e.cfg.DisableFastPath {
		return "banyan-nofast"
	}
	return "banyan"
}

// PruneKeep returns the resolved number of finalized rounds the engine
// retains below its finalized height.
func (e *Engine) PruneKeep() types.Round { return e.cfg.PruneKeep }

// Round returns the engine's current round (for tests and the harness).
func (e *Engine) Round() types.Round { return e.round }

// Tree exposes the block tree for inspection by tests and the harness.
func (e *Engine) Tree() *blocktree.Tree { return e.tree }

// Params returns the genesis fault-model parameters; the per-epoch
// parameters live in History().
func (e *Engine) Params() types.Params { return e.cfg.Params }

// History exposes the validator-set history for hosts and tests.
func (e *Engine) History() *membership.History { return e.history }

// Start implements protocol.Engine: the replica enters round 1.
func (e *Engine) Start(now time.Time) []protocol.Action {
	e.now = now
	acts := e.enterRound(1, now, e.actions())
	e.acts = e.progress(now, acts)
	return e.acts
}

// actions returns the engine's action list, emptied for the call about to
// fill it. The previous call's list is valid only until this call (the
// protocol.Engine contract); clearing it releases the messages it held.
func (e *Engine) actions() []protocol.Action {
	clear(e.acts)
	return e.acts[:0]
}

// HandleMessage implements protocol.Engine.
func (e *Engine) HandleMessage(from types.ReplicaID, msg types.Message, now time.Time) []protocol.Action {
	// The from-guard admits the whole identity registry, not just current
	// members: joiners must be able to request state before their first
	// epoch as voters, and removed validators may still serve sync. Voting
	// power is gated per message below, against the epoch's set.
	if e.stopped || int(from) >= e.cfg.Keyring.N() {
		return nil
	}
	e.now = now
	switch m := msg.(type) {
	case *types.Proposal:
		e.onProposal(from, m)
	case *types.VoteMsg:
		for _, v := range m.Votes {
			e.onVote(v)
		}
	case *types.CertMsg:
		e.onCert(m.Cert)
	case *types.Advance:
		e.onCert(m.Notarization)
		e.onUnlock(m.Unlock)
	case *types.BlockRequest:
		return e.onBlockRequest(from, m)
	case *types.SyncRequest:
		return e.onSyncRequest(from, m)
	case *types.SyncResponse:
		e.onSyncResponse(m)
	case *types.SnapshotRequest:
		return e.onSnapshotRequest(from, m)
	case *types.SnapshotResponse:
		return e.progress(now, e.onSnapshotResponse(m))
	case *types.BatchAnnounce:
		return e.progress(now, e.onBatchAnnounce(from, m))
	case *types.BatchRequest:
		return e.onBatchRequest(from, m)
	case *types.BatchResponse:
		e.onBatchResponse(m)
	default:
		e.met.rejected++
		return nil
	}
	e.acts = e.progress(now, e.actions())
	return e.acts
}

// HandleTimer implements protocol.Engine. Most timers carry no state of
// their own — they re-trigger the evaluation of the time-gated
// upon-clauses; resend timers additionally rebroadcast round state.
func (e *Engine) HandleTimer(id protocol.TimerID, now time.Time) []protocol.Action {
	if e.stopped {
		return nil
	}
	e.now = now
	acts := e.actions()
	if id.Kind == protocol.TimerResend && id.Round == e.round {
		acts = e.resendRound(now, acts)
	}
	// A fetch timer only marks itself fired: the progress pass drives every
	// fetch class, retrying what expired and re-arming for what is left.
	switch id.Kind {
	case protocol.TimerSuffixSync:
		e.segments.wake = time.Time{}
	case protocol.TimerStateSync:
		e.snapshots.wake = time.Time{}
	case protocol.TimerBatchFetch:
		e.batchFetch.wake = time.Time{}
	case protocol.TimerBodyPull:
		e.pulls.wake = time.Time{}
		if len(e.wanted) == 0 {
			return nil // the body landed before it fell overdue: the common case
		}
	}
	e.acts = e.progress(now, acts)
	return e.acts
}

// resendRound rebroadcasts this replica's state for a round it has been
// stuck in: its own votes, the header of the best block it holds (with
// parent credentials), any notarization certificates, and a sync request for
// newer finalized rounds. Receivers deduplicate everything, so resends are
// idempotent. This restores liveness when messages were lost for good
// (crash-rebooted peers, dropped frames across TCP reconnects) — a case
// the paper's reliable-link model excludes but deployments meet.
func (e *Engine) resendRound(now time.Time, acts []protocol.Action) []protocol.Action {
	rs := e.getRound(e.round)
	if !rs.started || (rs.advanced && !rs.barrier) {
		return acts
	}
	e.met.resends++
	// Own votes for this round, across all three ledgers (a leader's fast
	// vote, which only ever rode its proposal, included).
	if votes := rs.ownVotes(e.round, e.cfg.Self); len(votes) > 0 {
		acts = append(acts, protocol.Broadcast{Msg: &types.VoteMsg{Votes: votes}})
	}
	// The best (lowest-rank valid, else any) block we hold, as a header
	// relay; a receiver that lacks the body pulls it from us.
	if b := e.bestKnownBlock(rs); b != nil {
		acts = append(acts, protocol.Broadcast{Msg: e.relayProposal(b)})
	}
	// Any notarizations formed or received for this round.
	for _, r := range rs.byID {
		if r.notarization != nil {
			acts = append(acts, protocol.Broadcast{Msg: &types.CertMsg{Cert: r.notarization}})
		}
	}
	// Pull finalizations we may have missed: flag a probe for maybeSync,
	// which queues one segment on the suffix class unless one is in
	// flight. A direct request from here would bypass the class — its
	// one-peer-at-a-time rule, its 2Δ silence budget, and the
	// high-water mark — and re-fetch a segment already in flight.
	e.syncProbe = true
	// Re-arm with the same interval.
	acts = append(acts, protocol.SetTimer{
		ID: protocol.TimerID{Round: e.round, Kind: protocol.TimerResend},
		At: now.Add(e.resendInterval()),
	})
	return acts
}

func (e *Engine) bestKnownBlock(rs *roundState) *types.Block {
	var best *types.Block
	for _, r := range rs.byID {
		if r.valid && (best == nil || r.block.Rank < best.Rank) {
			best = r.block
		}
	}
	if best != nil {
		return best
	}
	for _, r := range rs.byID {
		if r.block != nil && (best == nil || r.block.Rank < best.Rank) {
			best = r.block
		}
	}
	return best
}

// resendInterval is comfortably beyond the slowest legitimate round: all
// n rank delays (2Δ each) plus margin, n being the current epoch's size.
func (e *Engine) resendInterval() time.Duration {
	return 2 * e.cfg.Delta * time.Duration(e.setFor(e.round).Size()+2)
}

// Metrics implements protocol.Engine.
func (e *Engine) Metrics() map[string]int64 {
	m := map[string]int64{
		"rounds":             e.met.roundsStarted,
		"proposals":          e.met.proposals,
		"relays":             e.met.relays,
		"votes_sent":         e.met.votesSent,
		"advances":           e.met.advances,
		"final_fast":         e.met.fastFinal,
		"final_slow":         e.met.slowFinal,
		"final_indirect":     e.met.indirectFinal,
		"blocks_commit":      e.met.blocksCommit,
		"bytes_commit":       e.met.bytesCommit,
		"rejected":           e.met.rejected,
		"resends":            e.met.resends,
		"epoch_hints":        e.met.epochHints,
		"statesync_served":   e.met.ssServed,
		"statesync_rejected": e.met.ssRejected,
		"statesync_bytes":    e.met.ssBytes,
		"payloads_carried":   e.met.carried,
		"epoch":              int64(e.history.Current().Epoch()),
		"epoch_changes":      e.met.epochChanges,
		"members":            int64(e.history.Current().Size()),
		"body_pulls_served":  e.met.bodyPullsServed,
		"body_pulls_refused": e.met.bodyPullsRefused,

		"settled_dropped":        e.met.settledDropped,
		"final_votes_suppressed": e.met.finalVotesSuppressed,
		"advances_skipped":       e.met.advancesSkipped,
	}
	m["sigs_verified"] = e.cfg.Verifier.Verified()
	// Every snapshot request counts, the first and each rotation alike.
	begun, rotated := e.snapshots.Counts()
	m["statesync_fetches"] = begun + rotated
	m["body_pulls"], m["body_pull_retries"] = e.pulls.Counts()
	if e.cfg.Dissem != nil {
		e.cfg.Dissem.Metrics(m)
		m["dissemFetches"], m["dissemFetchRetries"] = e.batchFetch.Counts()
		m["dissemServed"] = e.met.batchServed
		m["dissemDelivQueued"] = int64(len(e.delivQueue))
		m["dissemDelivDropped"] = e.met.delivDropped
	}
	return m
}

// ---------------------------------------------------------------------------
// Message ingestion. These mutate state only; all protocol reactions happen
// in progress() so that every upon-clause is re-evaluated exactly once per
// event regardless of which message kind triggered it.

// settled reports whether round r can no longer decide anything here: the
// finalized chain runs through it and the engine has left it. Both bounds
// only ever rise, so a settled round stays settled. Votes, certificates
// and unlock proofs for such a round are dropped before any round state,
// ledger or verifier is touched — nothing reads them again: finalization,
// notarization and unlock are all evaluated from the finalized round up,
// and a finalized parent needs no credentials. The verifier is consulted
// only after this check, so a signature for a settled round is verified
// nowhere.
func (e *Engine) settled(r types.Round) bool {
	return r <= e.tree.FinalizedRound() && r < e.round
}

func (e *Engine) onProposal(from types.ReplicaID, m *types.Proposal) {
	var (
		h  types.BlockHeader
		id types.BlockID
	)
	switch {
	case m.Block != nil:
		h, id = m.Block.Header(), m.Block.ID()
	case m.Header != nil:
		if e.settled(m.Header.Round) {
			// A header relay can only announce a block and carry credentials
			// for its round and the one before — all settled, so it goes
			// before the header is hashed or its signature looked up.
			e.met.settledDropped++
			return
		}
		h, id = m.Header.BlockHeader, m.Header.ID()
	default:
		e.met.rejected++
		return
	}
	if h.Round < 1 || int(h.Proposer) >= e.cfg.Keyring.N() {
		e.met.rejected++
		return
	}
	if h.Round+e.cfg.PruneKeep <= e.tree.FinalizedRound() {
		return // too old to matter
	}
	// The epoch and rank are committed into the header; both must match
	// the set in effect at the block's round — a non-member proposer gets
	// NoRank and is rejected here no matter what rank it claims.
	set := e.setFor(h.Round)
	if h.Epoch != set.Epoch() || !set.Contains(h.Proposer) ||
		h.Rank != set.RankOf(h.Round, h.Proposer) {
		e.met.rejected++
		return
	}
	rs := e.getRound(h.Round)
	switch {
	case rs.block(id) != nil:
		// A further copy, or a header relay of a block whose body is here:
		// only the credentials below can be news.
	case m.Block != nil:
		b := m.Block
		o := e.cfg.Obs
		var verifyStart time.Time
		if o != nil {
			verifyStart = time.Now() // real time: verification is CPU-bound
		}
		if !e.headerChecked(h.Round, id, b.Signature) {
			if err := e.cfg.Verifier.VerifyBlock(b); err != nil {
				e.met.rejected++
				return
			}
		}
		if o != nil && !e.replaying {
			d := time.Since(verifyStart)
			o.VerifyTime.Record(d)
			o.Tracer.Mark(b.Round, id, obs.StageProposalReceived, e.now)
			o.Tracer.Span(b.Round, id, obs.SpanVerify, e.now, d)
		}
		if r := rs.addBlock(b); !r.valid {
			r.pending = m
		}
		e.tree.Add(b)
		e.bodyArrived(b.Round, id)
		if e.cfg.Dissem != nil && !e.replaying {
			e.fetchMissing(b)
		}
	default:
		// A header for a block this replica does not hold. It enters
		// neither the round's blocks nor the tree — nothing downstream can
		// vote for, extend, or serve a block without its body — and only
		// marks the body as wanted from the relayer (pull.go).
		if !e.headerChecked(h.Round, id, m.Header.Signature) {
			if err := e.cfg.Verifier.VerifyHeader(m.Header); err != nil {
				e.met.rejected++
				return
			}
		}
		if !e.want(h.Round, id, h.Proposer, from, m.Header.Signature) {
			return
		}
	}
	// Absorb the proposer's fast vote (Addition 2): it counts toward
	// support sets even before the block is valid.
	if m.FastVote != nil {
		e.onVote(*m.FastVote)
	}
	// Adopt parent credentials carried by the proposal.
	if m.ParentNotarization != nil {
		e.onCert(m.ParentNotarization)
	}
	e.onUnlock(m.ParentUnlock)
}

func (e *Engine) onVote(v types.Vote) {
	if v.Round < 1 || !v.Kind.Valid() {
		e.met.rejected++
		return
	}
	if e.settled(v.Round) {
		e.met.settledDropped++
		return
	}
	// Membership pinning: only votes from members of the round's epoch
	// count. This is what defeats an epoch-straddling adversary — a
	// removed validator's key still verifies (identities are never
	// re-keyed), but its votes for rounds past its removal are discarded
	// before they touch any ledger.
	set := e.setFor(v.Round)
	if !set.Contains(v.Voter) {
		e.met.rejected++
		return
	}
	rs := e.getRound(v.Round)
	if rs.hasVote(v.Kind, v.Block, v.Voter) {
		return
	}
	if err := e.cfg.Verifier.VerifyVote(v); err != nil {
		e.met.rejected++
		return
	}
	rs.recordVote(v.Kind, v.Block, v.Voter, v.Signature, set)
	if rs.block(v.Block) == nil {
		// A vote for a block this replica has no body for: the voter holds
		// it (nobody votes for a body they lack), so it can be pulled from
		// there should the proposer's copy not show up.
		e.want(v.Round, v.Block, v.Voter, v.Voter, nil)
	}
}

func (e *Engine) onCert(c *types.Certificate) {
	if c == nil || c.Round < 1 {
		return
	}
	if e.settled(c.Round) {
		e.met.settledDropped++
		return
	}
	rs := e.getRound(c.Round)
	// Certificate verification is pinned to the certified round's epoch:
	// quorum sizes come from that set, and every signer must be one of its
	// members — old certs keep verifying after the set moves on, and a
	// removed validator's signature poisons any later-epoch certificate.
	set := e.setFor(c.Round)
	switch c.Kind {
	case types.CertNotarization:
		// A certificate that unlocks itself is news even where the block
		// holds a notarization already: the held one may be of bare
		// signatures — a vote withholder's among them — and prove nothing
		// about the unlock.
		held := rs.notarization(c.Block)
		unlocks := !e.cfg.DisableFastPath && unlocksItself(c, set)
		if held != nil && (!unlocks || unlocksItself(held, set)) {
			return
		}
		if err := e.cfg.Verifier.VerifyCertIn(c, set.Params().NotarizationQuorum(), set); err != nil {
			e.met.rejected++
			return
		}
		r := rs.recFor(c.Block)
		r.notarization = c
		e.tree.MarkNotarized(c.Block)
		if unlocks {
			// What an unlock proof of the same fast votes would teach
			// (onUnlock): the block is unlocked, and the votes join this
			// replica's support sets and notarization support.
			r.unlocked = true
			for i, voter := range c.Signers {
				if c.FastSigned(i) {
					rs.recordVote(types.VoteFast, c.Block, voter, c.Sigs[i], set)
				}
			}
		}
	case types.CertFinalization, types.CertFastFinalization:
		if rs.finalized || e.extFinal[c.Round] != nil {
			return
		}
		quorum := set.Params().FinalizationQuorum()
		if c.Kind == types.CertFastFinalization {
			quorum = set.Params().FastQuorum()
		}
		if err := e.cfg.Verifier.VerifyCertIn(c, quorum, set); err != nil {
			e.met.rejected++
			e.noteEpochHint(c)
			return
		}
		// A fast finalization is only meaningful for a rank-0 block; if the
		// block is known, enforce that here (otherwise it is enforced before
		// commit, when the block arrives).
		if c.Kind == types.CertFastFinalization {
			if b := rs.block(c.Block); b != nil && b.Rank != 0 {
				e.met.rejected++
				return
			}
			e.absorbFast(rs, c)
		}
		if c.Round <= e.round+1 {
			e.extFinal[c.Round] = c
		}
		e.noteFinalCert(c)
	default:
		e.met.rejected++
	}
}

// absorbFast makes a fast-finalization certificate, formed here or
// received, its block's notarization and unlock credential at any live
// round. Its n−p fast votes are n−p notarization votes, at least the
// notarization quorum, and n−p > f+p of them make it a certificate that
// unlocks itself (unlocksItself). It replaces a notarization certificate
// the block already holds while the round is live here: the fast one
// proves more, and holding it is what lets tryAdvance leave the round
// without an Advance. A round already left keeps the certificate it was
// left with, which its credentials (advanceNotar) still hold on to.
func (e *Engine) absorbFast(rs *roundState, c *types.Certificate) {
	r := rs.recFor(c.Block)
	if r.notarization == nil || !rs.advanced {
		r.notarization = c
	}
	r.unlocked = true
	e.tree.MarkNotarized(c.Block)
}

func (e *Engine) onUnlock(u *types.UnlockProof) {
	if u == nil || u.Round < 1 || e.cfg.DisableFastPath {
		return
	}
	if e.settled(u.Round) {
		e.met.settledDropped++
		return
	}
	rs := e.getRound(u.Round)
	if u.All && rs.allUnlocked {
		return
	}
	if !u.All && rs.isUnlocked(u.Block) {
		return
	}
	set := e.setFor(u.Round)
	if err := e.cfg.Verifier.VerifyUnlockProofIn(u, set.Params().UnlockThreshold(), set); err != nil {
		e.met.rejected++
		return
	}
	if u.All {
		rs.allUnlocked = true
	} else {
		rs.recFor(u.Block).unlocked = true
	}
	// Absorb the proof's verified fast votes: they contribute to this
	// replica's own support sets — notarization support included — and
	// future proofs.
	for _, en := range u.Entries {
		id := en.Header.ID()
		for i, voter := range en.Voters {
			rs.recordVote(types.VoteFast, id, voter, en.Sigs[i], set)
		}
	}
}

// ---------------------------------------------------------------------------
// The progress loop: evaluates every upon-clause of Algorithms 1 and 2 to a
// fixpoint, accumulating actions.

func (e *Engine) progress(now time.Time, acts []protocol.Action) []protocol.Action {
	for {
		changed := false
		e.recomputeUnlocks()
		if e.revalidate() {
			changed = true
		}
		if c, a := e.tryNotarize(acts); c {
			changed, acts = true, a
		}
		if c, a := e.tryPropose(now, acts); c {
			changed, acts = true, a
		}
		if c, a := e.tryVote(now, acts); c {
			changed, acts = true, a
		}
		if c, a := e.tryFinalize(acts); c {
			changed, acts = true, a
		}
		if c, a := e.tryAdvance(now, acts); c {
			changed, acts = true, a
		}
		if c, a := e.tryJump(now, acts); c {
			changed, acts = true, a
		}
		if e.stopped {
			if e.fault != nil {
				acts = append(acts, protocol.SafetyFault{Err: e.fault})
				e.fault = nil
			}
			return acts
		}
		if !changed {
			break
		}
	}
	acts = e.scheduleNotarTimers(now, acts)
	acts = e.maybeSync(now, acts)
	if e.cfg.Dissem != nil {
		acts = e.tryDisseminate(acts)
		acts = e.flushDelivery(acts)
	}
	// Replay drops every send and timer, so fetches wait for live
	// operation: EndReplay's progress pass begins whatever replay queued —
	// the bodies a recovered delivery queue lacks, the headers the journal
	// held without a body.
	if !e.replaying && !e.stopped {
		acts = e.segments.drive(now, acts)
		acts = e.snapshots.drive(now, acts)
		acts = e.batchFetch.drive(now, acts)
		acts = e.maybePull(now, acts)
	}
	e.maybePrune()
	return acts
}

// noteFinalCert remembers the highest-round finalization certificate for
// the catch-up subprotocol and flags catch-up work when the certificate
// proves the cluster is ahead of this replica.
func (e *Engine) noteFinalCert(c *types.Certificate) {
	if e.latestFinal == nil || c.Round > e.latestFinal.Round {
		e.latestFinal = c
		if c.Round > e.round+1 {
			e.catchupDirty = true
		}
	}
}

// noteEpochHint records a finalization-kind certificate that failed
// epoch-pinned verification but still proves the chain finalized rounds
// beyond this replica's horizon: a replica that crashed (or partitioned)
// before a reconfiguration and comes back after it holds a stale validator
// set, so every certificate of the new epoch fails VerifyCertIn and the
// ordinary catch-up trigger (noteFinalCert) never fires. If at least f+1
// of the certificate's signatures are genuine, at least one honest replica
// finalized that round under a set this replica has not learned yet. The
// hint is never trusted for commit — it only aims the snapshot fetcher,
// and the snapshot response re-verifies the full epoch chain against the
// local history (VerifyExtends) before anything is adopted.
func (e *Engine) noteEpochHint(c *types.Certificate) {
	fin := e.tree.FinalizedRound()
	if c.Round <= fin+e.cfg.PruneKeep {
		return // near-window garbage, not epoch lag
	}
	if e.epochHint != nil && c.Round <= e.epochHint.Round {
		return
	}
	f := e.history.Current().Params().F
	if e.cfg.Verifier.VerifyCert(c, f+1) != nil {
		return
	}
	e.epochHint = c
	e.met.epochHints++
	e.catchupDirty = true
}

// tryJump fast-forwards a replica whose finalized prefix has caught up
// with (or passed) its current round — the exit from catch-up: the
// finalized block of round k is notarized and unlocked by definition, so
// entering round k+1 through it is exactly Restriction 2's condition. The
// skipped rounds need no votes from this replica; the rest of the cluster
// finalized them long ago.
func (e *Engine) tryJump(now time.Time, acts []protocol.Action) (bool, []protocol.Action) {
	fin := e.tree.FinalizedRound()
	if fin < e.round {
		return false, acts
	}
	finID, ok := e.tree.FinalizedAt(fin)
	if !ok {
		return false, acts
	}
	rs := e.getRound(fin)
	rs.advanced = true
	rs.advanceBlock = finID
	rs.advanceNotar = nil
	rs.advanceProof = nil
	acts = e.enterRound(fin+1, now, acts)
	return true, acts
}

// maybeSync drives the catch-up subprotocol: when a finalization
// certificate proves the cluster is ahead, try to commit through it and —
// while blocks are still missing — queue the next contiguous chain
// segment on the suffix class (segments). The class unicasts the request
// to one peer at a time and gives each peer 2Δ; syncExpired decides what
// a segment whose peer stayed silent becomes. The resend timer's pull for
// possibly-missed finalizations (syncProbe) queues a segment the same
// way.
func (e *Engine) maybeSync(now time.Time, acts []protocol.Action) []protocol.Action {
	probe := e.syncProbe
	e.syncProbe = false
	if !e.catchupDirty && !probe {
		return acts
	}
	e.catchupDirty = false
	if e.epochHint != nil && e.epochHint.Round <= e.tree.FinalizedRound() {
		e.epochHint = nil // caught up past the hinted round
	}
	behind := e.behind()
	hinted := e.epochHint != nil
	if !behind && !probe && !hinted {
		return acts
	}
	if behind {
		// Try to commit through the certificate with what we have.
		var done bool
		acts, done = e.commitChain(e.latestFinal.Block, protocol.FinalizeIndirect, acts)
		if done {
			// Caught up: fast-forward the current round immediately.
			e.segments.Drop(e.segmentHeld)
			if c, a := e.tryJump(now, acts); c {
				acts = a
			}
			return acts
		}
	}
	if !e.snapshots.Idle() {
		// A snapshot fetch is under way; it lands above anything a suffix
		// request could return. Stay dirty so sync resumes for the tail.
		if behind {
			e.catchupDirty = true
		}
		return acts
	}
	if hinted {
		// Suffix sync cannot cross an epoch boundary this replica has not
		// learned: segment blocks of the new epoch fail epoch-pinned
		// validation on arrival. Escalate straight to a snapshot fetch,
		// which carries the validator-set chain alongside the window.
		e.beginFetch()
		return acts
	}
	e.segments.Drop(e.segmentHeld)
	if e.segments.Idle() {
		e.segments.Add(e.syncFrom(), types.NoReplica)
	}
	return acts
}

// behind reports whether a finalization certificate proves the cluster
// ahead of this replica's finalized prefix.
func (e *Engine) behind() bool {
	return e.latestFinal != nil && e.latestFinal.Round > e.tree.FinalizedRound()
}

// syncFrom is the first round suffix sync still lacks: above the
// finalized prefix and above the contiguous chain sync already fetched.
func (e *Engine) syncFrom() types.Round {
	return max(e.tree.FinalizedRound(), e.syncHigh) + 1
}

// segmentHeld reports whether the tree already holds the segment that
// starts at from, fetched or finalized by any path.
func (e *Engine) segmentHeld(from types.Round) bool { return from < e.syncFrom() }

// segmentRequest asks for the chain from a segment's first round up to
// the highest known finalization; the serving peer caps the response at
// MaxSyncBlocks and the requester iterates.
func (e *Engine) segmentRequest(from types.Round) types.Message {
	to := from + types.MaxSyncBlocks - 1
	if e.latestFinal != nil && e.latestFinal.Round > to {
		to = e.latestFinal.Round
	}
	return &types.SyncRequest{From: from, To: to}
}

// syncExpired is the suffix class's abandon hook, asked about a segment
// whose peer stayed silent for 2Δ: false re-sends it to the next peer.
// A probe (nothing proves this replica behind) is dropped and never
// retried; the next resend timer probes again. So is a segment a snapshot
// fetch will land above. A segment the tree holds by now gives way to the
// next one. A segment stateSyncStalls peers left unserved means the chain
// cannot continue from it: at the first missing round no peer holds the
// prefix any more (fresh join, disk loss, deep-pruned cluster), so
// catch-up escalates to a snapshot fetch; above it, syncHigh may stand on
// a bogus segment, so catch-up restarts from the finalized prefix.
func (e *Engine) syncExpired(from types.Round) bool {
	if !e.behind() || !e.snapshots.Idle() {
		return true
	}
	switch fin := e.tree.FinalizedRound(); {
	case e.segmentHeld(from):
		// The next segment follows below.
	case e.segments.Sent(from) < stateSyncStalls:
		return false
	case from == fin+1:
		e.beginFetch()
		return true
	default:
		e.syncHigh = fin
	}
	e.segments.Add(e.syncFrom(), types.NoReplica)
	return true
}

// beginFetch escalates catch-up to a snapshot fetch: the round of the
// highest known finalization certificate becomes the fetch target, and
// the progress pass sends the SnapshotRequest to the rotation's current
// peer, rotating away from a silent one. Nothing escalates and no segment
// is queued while a snapshot fetch is under way, so the snapshot class
// holds one target at a time.
func (e *Engine) beginFetch() {
	target := e.latestFinal
	if h := e.epochHint; h != nil && (target == nil || h.Round > target.Round) {
		target = h
	}
	if target != nil {
		e.snapshots.Add(target.Round, types.NoReplica)
	}
}

// snapshotReached reports whether the finalized prefix reached a snapshot
// target — by adoption, or by suffix sync overtaking the fetch — which
// completes the fetch.
func (e *Engine) snapshotReached(target types.Round) bool {
	return target <= e.tree.FinalizedRound()
}

// onSnapshotRequest serves this replica's finalized window to a peer that
// cannot catch up via chain-suffix sync. The response is only useful — and
// only sent — when the window tip is strictly ahead of the requester and
// this replica holds a finalization certificate naming the tip exactly
// (the anchor the requester's trust gate demands).
func (e *Engine) onSnapshotRequest(from types.ReplicaID, m *types.SnapshotRequest) []protocol.Action {
	fin := e.tree.FinalizedRound()
	if fin < 1 || fin <= m.Have {
		return nil
	}
	if e.latestFinal == nil || e.latestFinal.Round != fin {
		return nil // mid-catch-up ourselves; cannot anchor our own tip
	}
	if tipID, ok := e.tree.FinalizedAt(fin); !ok || e.latestFinal.Block != tipID {
		return nil
	}
	chain := e.finalizedWindow()
	if len(chain) == 0 {
		return nil
	}
	e.met.ssServed++
	return []protocol.Action{protocol.Send{To: from, Msg: &types.SnapshotResponse{
		Chain:        chain,
		Finalization: e.latestFinal,
		Sets:         e.history.Descs(),
	}}}
}

// onSnapshotResponse ingests a peer's snapshot window through the trust
// gate WAL checkpoint restores pass too (adoptWindow), anchored
// tip-exactly because a peer, unlike local disk, is an adversarial
// channel. An adopted window is committed; the certificate then drives
// ordinary suffix sync for the tail.
func (e *Engine) onSnapshotResponse(m *types.SnapshotResponse) []protocol.Action {
	if !e.replaying && !e.snapshots.Fetching() {
		// Unsolicited: only a replica that escalated to a snapshot fetch
		// (or is replaying one from its WAL) ingests state this way.
		e.met.ssRejected++
		return nil
	}
	n := len(m.Chain)
	if n == 0 || n > types.MaxSnapshotBlocks || m.Chain[n-1] == nil {
		e.met.ssRejected++
		return nil
	}
	if m.Chain[n-1].Round <= e.tree.FinalizedRound() {
		// Stale: suffix sync or another snapshot got there first.
		e.snapshots.Drop(e.snapshotReached)
		return nil
	}
	added, err := e.adoptWindow(m.Sets, m.Chain, m.Finalization, true)
	if errors.Is(err, blocktree.ErrSafetyViolation) {
		// A quorum-certified window contradicting our finalized prefix is
		// the protocol's fatal condition.
		e.stop(err)
		return nil
	}
	if err != nil {
		e.met.ssRejected++
		return nil
	}
	e.met.ssBytes += int64(types.WireSize(m))
	newFin := e.tree.FinalizedRound()
	rs := e.getRound(newFin)
	rs.finalized = true
	rs.finalizedBlock = m.Chain[n-1].ID()
	var acts []protocol.Action
	if len(added) > 0 {
		e.met.indirectFinal++
		acts = e.deliver(added, protocol.FinalizeIndirect, acts)
	}
	// Pending commits at or below the adopted tip are obsolete: the window
	// is the canonical finalized history now, and anything it skipped is
	// below every peer's horizon (that is why the fetch escalated).
	for id := range e.pendingCommit {
		if b, ok := e.tree.Block(id); !ok || b.Round <= newFin {
			delete(e.pendingCommit, id)
		}
	}
	// Suffix sync resumes above the window for the tail between the
	// snapshot and the live tip.
	e.catchupDirty = true
	e.snapshots.Drop(e.snapshotReached)
	e.noteFinalCert(m.Finalization)
	return acts
}

// onSyncRequest serves a catch-up request from this replica's finalized
// chain; the requester iterates. A response holds at most MaxSyncBlocks
// blocks, and it stops before its encoding (summed exactly, as the
// transport's frame check sums it) would pass types.MaxFrame — the frame
// a peer would refuse — while always holding at least one block.
func (e *Engine) onSyncRequest(from types.ReplicaID, m *types.SyncRequest) []protocol.Action {
	start := m.From
	if start < 1 {
		start = 1
	}
	fin := e.tree.FinalizedRound()
	end := m.To
	if end > fin {
		end = fin
	}
	if max := start + types.MaxSyncBlocks - 1; end > max {
		end = max
	}
	if end < start {
		return nil
	}
	resp := &types.SyncResponse{Finalization: e.latestFinal}
	size := types.EncodedSize(resp)
	for r := start; r <= end; r++ {
		b, ok := e.tree.FinalizedBlock(r)
		if !ok {
			break
		}
		size += types.BlockEncodedSize(b)
		if len(resp.Blocks) > 0 && size > types.MaxFrame {
			break
		}
		resp.Blocks = append(resp.Blocks, b)
	}
	if len(resp.Blocks) == 0 {
		return nil
	}
	return []protocol.Action{protocol.Send{To: from, Msg: resp}}
}

// onSyncResponse ingests a catch-up segment: signed blocks whose parents
// connect to the local tree (contiguity keeps the sync high-water mark
// honest), then the certificate through the normal finalization path. The
// subsequent progress pass commits whatever now connects.
func (e *Engine) onSyncResponse(m *types.SyncResponse) {
	if len(m.Blocks) > types.MaxSyncBlocks {
		e.met.rejected++
		return
	}
	for _, b := range m.Blocks {
		if b == nil || b.Round < 1 || int(b.Proposer) >= e.cfg.Keyring.N() {
			e.met.rejected++
			continue
		}
		// Epoch and rank against the local history's set for the round.
		// Blocks from epochs this replica has not reached yet fail here and
		// are re-served once snapshot sync advances the history.
		set := e.setFor(b.Round)
		if b.Epoch != set.Epoch() || b.Rank != set.RankOf(b.Round, b.Proposer) {
			e.met.rejected++
			continue
		}
		if !e.tree.Contains(b.Parent) {
			break // segment no longer connects; drop the rest
		}
		if !e.tree.Contains(b.ID()) {
			if err := e.cfg.Verifier.VerifyBlock(b); err != nil {
				e.met.rejected++
				continue
			}
			e.tree.Add(b)
		}
		if b.Round > e.syncHigh {
			e.syncHigh = b.Round
		}
	}
	e.catchupDirty = true
	if m.Finalization != nil {
		e.onCert(m.Finalization)
	}
}

// getRound returns (creating lazily, from a retired round when one is
// spare) the state for a round.
func (e *Engine) getRound(r types.Round) *roundState {
	rs, ok := e.rounds[r]
	if !ok {
		if n := len(e.spare); n > 0 {
			rs = e.spare[n-1]
			e.spare[n-1] = nil
			e.spare = e.spare[:n-1]
		} else {
			rs = newRoundState()
		}
		e.rounds[r] = rs
	}
	return rs
}

// enterRound makes r the current round at time now (Restriction 2 /
// Algorithm 2 line 54) and schedules this replica's proposal delay.
func (e *Engine) enterRound(r types.Round, now time.Time, acts []protocol.Action) []protocol.Action {
	e.round = r
	rs := e.getRound(r)
	rs.started = true
	rs.t0 = now
	e.met.roundsStarted++
	if o := e.cfg.Obs; o != nil {
		o.Round.Set(int64(r))
	}
	rank := e.setFor(r).RankOf(r, e.cfg.Self)
	if rank > 0 && rank != types.NoRank {
		// Δ_prop(r_u) = 2Δ·r_u (Algorithm 1 line 23). The leader's delay is
		// zero; tryPropose handles it immediately.
		acts = append(acts, protocol.SetTimer{
			ID: protocol.TimerID{Round: r, Kind: protocol.TimerPropose, Rank: rank},
			At: now.Add(e.propDelay(rank)),
		})
	}
	// Liveness hardening: if this round is still open after every rank's
	// delay has expired, suspect message loss and start resending.
	acts = append(acts, protocol.SetTimer{
		ID: protocol.TimerID{Round: r, Kind: protocol.TimerResend},
		At: now.Add(e.resendInterval()),
	})
	return acts
}

func (e *Engine) propDelay(rank types.Rank) time.Duration {
	return 2 * e.cfg.Delta * time.Duration(rank)
}

// recomputeUnlocks refreshes the Definition 7.6 state of all live rounds,
// each under its own epoch's f+p threshold.
func (e *Engine) recomputeUnlocks() {
	if e.cfg.DisableFastPath {
		return
	}
	for r := e.tree.FinalizedRound(); r <= e.round; r++ {
		if rs, ok := e.rounds[r]; ok {
			rs.recomputeUnlock(e.setFor(r).Params().UnlockThreshold())
		}
	}
}

// revalidate retries pending proposals whose parent credentials may have
// arrived (Algorithm 2 line 62).
func (e *Engine) revalidate() bool {
	changed := false
	for r := e.tree.FinalizedRound(); r <= e.round+1; r++ {
		rs, ok := e.rounds[r]
		if !ok {
			continue
		}
		for _, r := range rs.byID {
			if r.pending == nil || !e.validBlock(rs, r.pending.Block) {
				continue
			}
			r.valid, r.pending = true, nil
			changed = true
		}
	}
	return changed
}

// validBlock implements valid(b) (Algorithm 2 line 62): b extends a
// notarized and unlocked round-(k-1) block, and a rank-0 block carries its
// proposer's fast vote. Signature and rank were verified at ingestion.
func (e *Engine) validBlock(rs *roundState, b *types.Block) bool {
	if b.Rank == 0 && !e.cfg.DisableFastPath {
		if !rs.set(types.VoteFast, b.ID()).has(b.Proposer) {
			return false
		}
	}
	return e.parentOK(b)
}

func (e *Engine) parentOK(b *types.Block) bool {
	if b.Round == 1 {
		return b.Parent == e.tree.Genesis().ID()
	}
	if e.tree.IsFinalized(b.Parent) {
		// Finalized: notarized and unlocked by definition — but only a
		// round-(k-1) parent is a legal extension point. A finalized parent
		// from an older round is a superseded fork point: voting for such a
		// block could notarize a chain that contradicts the finalized block
		// at round k-1 and halt the cluster with a safety fault.
		pb, ok := e.tree.Block(b.Parent)
		return ok && pb.Round == b.Round-1
	}
	if _, ok := e.tree.FinalizedAt(b.Round - 1); ok {
		// A round-(k-1) block is finalized locally and b does not extend
		// it: even if b's parent is notarized and unlocked, extending the
		// losing fork can only notarize a chain that contradicts finalized
		// history — and, when the finalized block carried a validator-set
		// change, under the wrong epoch.
		return false
	}
	prev, ok := e.rounds[b.Round-1]
	if !ok {
		return false
	}
	notarized := prev.notarization(b.Parent) != nil || e.tree.IsNotarized(b.Parent)
	if !notarized {
		return false
	}
	if e.cfg.DisableFastPath {
		return true
	}
	return prev.isUnlocked(b.Parent)
}

// tryPropose implements Algorithm 1 line 23: propose once the proposal
// delay for this replica's rank has elapsed.
func (e *Engine) tryPropose(now time.Time, acts []protocol.Action) (bool, []protocol.Action) {
	rs := e.getRound(e.round)
	if e.replaying || !rs.started {
		return false, acts
	}
	if rs.proposed || rs.advanced {
		return false, acts
	}
	set := e.setFor(e.round)
	rank := set.RankOf(e.round, e.cfg.Self)
	if rank == types.NoRank {
		// Observer: not a member of this round's epoch — nothing to propose.
		return false, acts
	}
	if now.Before(rs.t0.Add(e.propDelay(rank))) {
		return false, acts
	}
	parentID, parentNotar, parentProof := e.parentCreds(e.round)
	payload := e.nextPayload(e.round, rank, parentID)
	// A host-queued validator-set change rides this proposal, provided it
	// would actually apply to the round's set (a stale or inapplicable
	// change stays queued rather than burning its block). A payload that
	// already carries one keeps it.
	if e.cfg.Reconfig != nil && payload.Change == nil {
		if c := e.cfg.Reconfig.Pending(); c != nil {
			if _, err := set.Apply(c, e.round+1); err == nil {
				payload = types.ConfigChangePayload(*c, payload)
			}
		}
	}
	b := types.NewBlock(e.round, e.cfg.Self, rank, parentID, payload)
	b.Epoch = set.Epoch()
	if err := e.cfg.Signer.SignBlock(b); err != nil {
		// Impossible by construction (proposer == signer); treat as fatal.
		e.stop(fmt.Errorf("core: signing own block: %w", err))
		return true, acts
	}
	id := b.ID()
	e.adoptOwn(rs, b)

	msg := &types.Proposal{
		Block:              b,
		ParentNotarization: parentNotar,
		ParentUnlock:       parentProof,
	}
	if rank == 0 && !e.cfg.DisableFastPath {
		// Addition 2: the leader's proposal carries its own fast vote.
		fv := e.castVote(rs, id, now)
		msg.FastVote = &fv
	}
	return true, append(acts, protocol.Broadcast{Msg: msg})
}

// adoptOwn makes b this replica's proposal of its round: valid by
// construction, in blocks(k) and the tree.
func (e *Engine) adoptOwn(rs *roundState, b *types.Block) {
	rs.addBlock(b).valid = true
	e.tree.Add(b)
	rs.proposed = true
	e.met.proposals++
}

// castVote signs this replica's notarization vote for block id of the
// current round, and id joins N. The first one of a round is cast as the
// round's fast vote — Definition 6.2 casts the two together, so one
// signature says both, and whoever counts the fast vote counts the
// notarization vote with it (roundState.notarSupport); a bare notarization
// vote is signed only once the fast vote is spent, or without a fast path.
func (e *Engine) castVote(rs *roundState, id types.BlockID, now time.Time) types.Vote {
	kind := types.VoteNotarize
	if !rs.fastVoteSent && !e.cfg.DisableFastPath {
		kind = types.VoteFast
		rs.fastVoteSent = true
	}
	v := e.cfg.Signer.SignVote(kind, e.round, id)
	rs.recFor(id).notarVoted = true
	rs.recordVote(kind, id, e.cfg.Self, v.Signature, e.setFor(e.round))
	if o := e.cfg.Obs; o != nil {
		o.Tracer.Mark(e.round, id, obs.StageVoteSent, now)
	}
	return v
}

// parentCreds returns the parent this replica extends in round r, plus the
// credentials to ship with the proposal (Addition 2).
func (e *Engine) parentCreds(r types.Round) (types.BlockID, *types.Certificate, *types.UnlockProof) {
	if r == 1 {
		return e.tree.Genesis().ID(), nil, nil
	}
	prev := e.getRound(r - 1)
	return prev.advanceBlock, prev.advanceNotar, prev.advanceProof
}

// tryVote implements Algorithm 1 line 33: once the notarization delay of
// the lowest-ranked valid block has elapsed, vote for every such block not
// yet in N — the first vote of the round as a fast vote, which is the
// notarization vote too (Addition 3 as one signature) — and relay the
// headers of blocks proposed by others (line 35). A leader's own block is
// in N since it proposed it (castVote).
func (e *Engine) tryVote(now time.Time, acts []protocol.Action) (bool, []protocol.Action) {
	rs := e.getRound(e.round)
	if e.replaying || !rs.started || rs.advanced || rs.finalVoted {
		// A finalization vote says N ⊆ {b} for good (line 51): live, the
		// round was left with it; restored from the journal into a round
		// re-entered through catch-up, no other block may join N.
		return false, acts
	}
	myRank := e.setFor(e.round).RankOf(e.round, e.cfg.Self)
	if myRank == types.NoRank {
		// Observer: non-members cast no votes; they follow the round via
		// certificates and finalizations alone.
		return false, acts
	}
	// Lowest rank among valid blocks: the "∄ valid block of lower rank"
	// condition restricts voting to that rank.
	minRank, found := types.Rank(0), false
	for _, r := range rs.byID {
		if r.valid && (!found || r.block.Rank < minRank) {
			minRank, found = r.block.Rank, true
		}
	}
	if !found || now.Before(rs.t0.Add(e.propDelay(minRank))) {
		return false, acts
	}
	changed := false
	for id, r := range rs.byID {
		b := r.block
		if !r.valid || b.Rank != minRank || r.notarVoted {
			continue
		}
		changed = true
		if b.Rank != myRank && !e.cfg.DisableForwarding {
			// Line 35: relay the block's header with its parent's
			// credentials, so replicas that missed the original broadcast
			// learn of the block and whom to pull its body from.
			acts = append(acts, protocol.Broadcast{Msg: e.relayProposal(b)})
			e.met.relays++
		}
		// Addition 3 / line 39: one vote, one signature.
		vote := e.castVote(rs, id, now)
		e.met.votesSent++
		acts = append(acts, protocol.Broadcast{Msg: &types.VoteMsg{Votes: []types.Vote{vote}}})
	}
	return changed, acts
}

// relayProposal builds the header relay of a block this replica is about
// to vote for (or is resending): the block's own signed header, shared
// by every relay — no payload, whatever the payload's form — plus the
// credentials of relayCreds.
func (e *Engine) relayProposal(b *types.Block) *types.Proposal {
	p := &types.Proposal{Header: b.SignedHeader(), Relayed: true}
	e.relayCreds(b, p)
	return p
}

// relayCreds attaches to a relay of b — header form, or the body form
// that answers a BlockRequest — the best parent credentials this replica
// holds. For rank-0 blocks the relay also carries the proposer's fast
// vote when this replica holds it: validity requires that vote
// (Addition 2), and without it a replica the original broadcast missed —
// a leader that sent its body bare, or an equivocating leader sending
// each twin to only half the cluster — could never validate the block,
// splitting the cluster below the notarization quorum.
func (e *Engine) relayCreds(b *types.Block, p *types.Proposal) {
	if b.Rank == 0 {
		if fast := e.getRound(b.Round).set(types.VoteFast, b.ID()); fast.has(b.Proposer) {
			p.FastVote = &types.Vote{
				Kind: types.VoteFast, Round: b.Round, Block: b.ID(),
				Voter: b.Proposer, Signature: fast.sig(b.Proposer),
			}
		}
	}
	if b.Round > 1 && !e.tree.IsFinalized(b.Parent) {
		prev := e.getRound(b.Round - 1)
		p.ParentNotarization = prev.notarization(b.Parent)
		if !e.cfg.DisableFastPath && !unlocksItself(p.ParentNotarization, e.setFor(b.Round-1)) {
			if prev.advanceBlock == b.Parent && prev.advanceProof != nil {
				p.ParentUnlock = prev.advanceProof
			} else {
				p.ParentUnlock = prev.buildUnlockProof(b.Round-1, b.Parent,
					e.setFor(b.Round-1).Params().UnlockThreshold())
			}
		}
	}
}

// tryNotarize implements Algorithm 2 line 45: combine a quorum of
// notarization votes into a notarization certificate, each round under
// its own epoch's quorum. A block that tryFinalize FP-finalizes later in
// the same pass gets none: its fast-finalization certificate is its
// notarization (absorbFast).
func (e *Engine) tryNotarize(acts []protocol.Action) (bool, []protocol.Action) {
	changed := false
	for r := e.tree.FinalizedRound(); r <= e.round; r++ {
		rs, ok := e.rounds[r]
		if !ok {
			continue
		}
		quorum := e.setFor(r).Params().NotarizationQuorum()
		fast, fastOK := e.fastFinalizable(r, rs)
		// A block's notarization voters are split over two ledgers
		// (notarSupport); one that has any is a key of at least one.
		for {
			id, ok := rs.firstBlock(func(id types.BlockID) bool {
				return rs.notarization(id) == nil && !(fastOK && id == fast) && rs.notarSupport(id) >= quorum
			}, types.VoteFast, types.VoteNotarize)
			if !ok {
				break
			}
			rs.rec(id).notarization = rs.certificate(types.CertNotarization, r, id)
			e.tree.MarkNotarized(id)
			if o := e.cfg.Obs; o != nil && !e.replaying {
				o.Tracer.Mark(r, id, obs.StageNotarized, e.now)
			}
			changed = true
		}
	}
	return changed, acts
}

// tryFinalize implements Algorithm 2 line 56: explicit finalization by
// finalization-vote quorum (SP), by n-p fast votes for a valid rank-0
// block (FP, Addition 4), or by a certificate received from a peer.
func (e *Engine) tryFinalize(acts []protocol.Action) (bool, []protocol.Action) {
	changed := false
	for r := e.tree.FinalizedRound() + 1; r <= e.round; r++ {
		rs, ok := e.rounds[r]
		if !ok {
			continue
		}
		if rs.finalized {
			continue
		}
		// Received certificate for a round at or below our own.
		if cert := e.extFinal[r]; cert != nil {
			changed = true
			acts = e.finalizeExplicit(rs, cert, protocol.FinalizeIndirect, acts)
			continue
		}
		// FP-finalization: n-p fast votes for a valid rank-0 block.
		if id, ok := e.fastFinalizable(r, rs); ok {
			changed = true
			acts = e.finalizeExplicit(rs, rs.certificate(types.CertFastFinalization, r, id), protocol.FinalizeFast, acts)
			continue
		}
		// SP-finalization: quorum of finalization votes.
		quorum := e.setFor(r).Params().FinalizationQuorum()
		if id, ok := rs.firstBlock(func(id types.BlockID) bool {
			return rs.set(types.VoteFinalize, id).count() >= quorum
		}, types.VoteFinalize); ok {
			changed = true
			acts = e.finalizeExplicit(rs, rs.certificate(types.CertFinalization, r, id), protocol.FinalizeSlow, acts)
		}
	}
	// Retry commits blocked on missing ancestors.
	for id, mode := range e.pendingCommit {
		var done bool
		acts, done = e.commitChain(id, mode, acts)
		if done {
			delete(e.pendingCommit, id)
			changed = true
		}
	}
	// A commit still blocked once this replica is two rounds past its
	// finalized tip is no body in flight: an ancestor's proposal, relays
	// and votes all missed it, so nothing queued a pull. Suffix sync
	// fetches the chain instead.
	if len(e.pendingCommit) > 0 && e.round > e.tree.FinalizedRound()+2 {
		e.catchupDirty = true
	}
	return changed, acts
}

// fastFinalizable returns the block tryFinalize FP-finalizes in round r on
// this progress pass: a valid rank-0 block holding n-p fast votes, in a
// live round at or below the current one that no certificate has
// finalized yet.
func (e *Engine) fastFinalizable(r types.Round, rs *roundState) (types.BlockID, bool) {
	if e.cfg.DisableFastPath || rs.finalized || e.extFinal[r] != nil ||
		r <= e.tree.FinalizedRound() || r > e.round {
		return types.BlockID{}, false
	}
	id, ok := rs.fastQuorumBlock(e.setFor(r).Params().FastQuorum())
	return id, ok && rs.rec(id).valid
}

// fastQuorumBlock finds a received rank-0 block holding at least quorum
// fast votes.
func (rs *roundState) fastQuorumBlock(quorum int) (types.BlockID, bool) {
	return rs.firstBlock(func(id types.BlockID) bool {
		b := rs.block(id)
		return b != nil && b.Rank == 0 && rs.set(types.VoteFast, id).count() >= quorum
	}, types.VoteFast)
}

// finalizeExplicit records an explicit finalization, broadcasts the
// certificate if this replica formed it (line 58), and commits the chain.
// A fast certificate formed here becomes its block's notarization, as a
// received one did in onCert.
func (e *Engine) finalizeExplicit(rs *roundState, cert *types.Certificate,
	mode protocol.FinalizationMode, acts []protocol.Action) []protocol.Action {
	rs.finalized = true
	rs.finalizedBlock = cert.Block
	e.noteFinalCert(cert)
	if o := e.cfg.Obs; o != nil && !e.replaying {
		if mode == protocol.FinalizeFast {
			if rs.notarization(cert.Block) == nil {
				// The certificate is the block's notarization as well.
				o.Tracer.Mark(cert.Round, cert.Block, obs.StageNotarized, e.now)
			}
			o.Tracer.Mark(cert.Round, cert.Block, obs.StageFastCertified, e.now)
		}
		// Commit latency is measured from round entry (rs.t0) to the
		// finalization becoming known here, in the engine's clock domain.
		// Rounds this replica never entered (catch-up, replayed history)
		// carry no t0 and are skipped.
		if rs.started && !rs.t0.IsZero() {
			o.ObserveCommit(cert.Round, cert.Block, e.now.Sub(rs.t0), e.now)
		}
	}
	switch mode {
	case protocol.FinalizeFast:
		e.met.fastFinal++
		e.absorbFast(rs, cert)
		acts = append(acts, protocol.Broadcast{Msg: &types.CertMsg{Cert: cert}})
	case protocol.FinalizeSlow:
		e.met.slowFinal++
		acts = append(acts, protocol.Broadcast{Msg: &types.CertMsg{Cert: cert}})
	default:
		e.met.indirectFinal++
	}
	acts, done := e.commitChain(cert.Block, mode, acts)
	if !done {
		e.pendingCommit[cert.Block] = mode
	}
	return acts
}

// commitChain applies a finalization to the block tree, emitting a Commit
// for the newly finalized chain. done is false while ancestors are missing.
func (e *Engine) commitChain(id types.BlockID, mode protocol.FinalizationMode,
	acts []protocol.Action) ([]protocol.Action, bool) {
	chain, err := e.tree.Finalize(id)
	switch {
	case err == nil:
		if len(chain) > 0 {
			e.carryOrphans(chain)
			e.applyChanges(chain)
			acts = e.deliver(chain, mode, acts)
		}
		return acts, true
	case isMissingAncestor(err):
		return acts, false
	default:
		e.stop(err)
		return acts, true
	}
}

// carryOrphans queues the payload of every own block a newly finalized
// chain excludes: the round of each chain block is decided, so this
// replica's block of that round, if it is another one, can never finalize.
func (e *Engine) carryOrphans(chain []*types.Block) {
	for _, fin := range chain {
		rs, ok := e.rounds[fin.Round]
		if !ok {
			continue
		}
		for id, r := range rs.byID {
			if b := r.block; b != nil && b.Proposer == e.cfg.Self && id != fin.ID() {
				e.carryPayload(b.Payload)
			}
		}
	}
}

// carryPayload queues a payload whose block is dead for re-proposal. A
// validator-set change riding it is dropped: the Reconfigurator keeps
// offering a change until it observes it finalized. Under Config.Dissem
// nothing is queued: the store keeps a batch proposable until a finalized
// block references it. Replay queues nothing either — what the journal
// shows orphaned was carried, or lost with the process, before the crash.
func (e *Engine) carryPayload(p types.Payload) {
	if e.cfg.Dissem != nil || e.replaying {
		return
	}
	if p = p.WithoutChange(); p.Size() == 0 {
		return
	}
	e.carry = append(e.carry, p)
	e.met.carried++
}

// nextPayload returns what this replica proposes at the given rank of
// round r on parent: under Config.Dissem, the store's proposable batches
// that the parent chain does not reference yet, or nothing when a block
// of that chain is missing here; otherwise a carried payload, else a
// fresh one from the source. The oldest carried payload is kept for a
// round this replica leads — the rank-0 block is the one a round prefers
// — and a fallback proposal takes the next oldest, so no payload can
// cycle through losing proposals forever.
func (e *Engine) nextPayload(r types.Round, rank types.Rank, parent types.BlockID) types.Payload {
	if e.cfg.Dissem != nil {
		chain, whole := e.chainRefs(parent)
		if !whole {
			return types.Payload{} // the missing block's refs are unknown
		}
		return e.cfg.Dissem.Propose(chain)
	}
	if carried, ok := e.takeCarried(rank); ok {
		return carried
	}
	return e.cfg.Payloads.NextPayload(r)
}

// takeCarried pops the carried payload a proposal at rank may take.
func (e *Engine) takeCarried(rank types.Rank) (types.Payload, bool) {
	i := 0
	if rank > 0 {
		i = 1
	}
	if i >= len(e.carry) {
		return types.Payload{}, false
	}
	p := e.carry[i]
	if e.carry = append(e.carry[:i], e.carry[i+1:]...); len(e.carry) == 0 {
		e.carry = nil // release the drained backing array
	}
	return p, true
}

// chainRefs returns the batch refs of the blocks from parent down to the
// local finalized tip: what a proposal on parent must not reference
// again (the refs of finalized blocks have left the store's pool). It
// reports false when the walk stops at a block this replica does not
// hold, short of the tip. The slice is scratch, reused by the next call.
func (e *Engine) chainRefs(parent types.BlockID) ([]types.BatchRef, bool) {
	refs := e.chainScratch[:0]
	fin := e.tree.FinalizedRound()
	b, ok := e.tree.Block(parent)
	for ; ok && b.Round > fin; b, ok = e.tree.Block(b.Parent) {
		refs = append(refs, b.Payload.Batches...)
	}
	e.chainScratch = refs
	return refs, ok
}

func isMissingAncestor(err error) bool {
	return errors.Is(err, blocktree.ErrMissingAncestor)
}

// applyChanges walks a newly finalized chain (oldest first) and applies
// any validator-set changes it carries: the history grows by one epoch
// per applicable change, activation the change round + 1; a joiner's key
// is registered with the identity registry (idempotent when the host
// pre-provisioned it); and vote ledgers of rounds the new set governs are
// scrubbed of non-member votes — buffered future-round votes from a
// just-removed validator must not survive into its post-removal epochs.
// An inapplicable change is a deterministic no-op (every honest replica
// evaluates the same finalized change against the same history). Either
// way the host's Reconfigurator slot is notified so a queued change that
// just finalized — whoever proposed it — stops being re-proposed.
func (e *Engine) applyChanges(chain []*types.Block) {
	for _, b := range chain {
		c := b.Payload.Change
		if c == nil {
			continue
		}
		if next, ok := e.history.Apply(c, b.Round); ok {
			if c.Op == types.ConfigAdd {
				// Best-effort: a registry that already knows the ID under a
				// different key rejects the re-key, and the joiner's
				// signatures simply fail verification.
				_ = e.cfg.Keyring.SetKey(c.Replica, c.PubKey)
			}
			e.scrubNonMembers(next)
			e.met.epochChanges++
			if o := e.cfg.Obs; o != nil {
				o.Epoch.Set(int64(next.Epoch()))
			}
		}
		if e.cfg.Reconfig != nil {
			e.cfg.Reconfig.Observe(c)
		}
	}
}

// scrubNonMembers drops buffered votes, and certificates formed from
// them, cast by replicas outside the given set from every live round the
// set governs. Unlock state is recomputed from the scrubbed ledgers on
// the next progress pass.
func (e *Engine) scrubNonMembers(set *membership.ValidatorSet) {
	quorum := set.Params().NotarizationQuorum()
	for r, rs := range e.rounds {
		if r < set.Activation() {
			continue
		}
		rs.scrubNonMembers(set, quorum)
	}
}

// tryAdvance implements Algorithm 2 line 48 (Restriction 2, Additions 1):
// once a notarized and unlocked block exists and the fast vote is out,
// broadcast the notarization and unlock proof — no proof when the
// notarization unlocks itself, and no Advance at all when the block's
// credential is its fast-finalization certificate, which already went out
// as a CertMsg — send a finalization vote if N ⊆ {b} (line 51), and enter
// the next round.
func (e *Engine) tryAdvance(now time.Time, acts []protocol.Action) (bool, []protocol.Action) {
	rs := e.getRound(e.round)
	if !rs.started {
		return false, acts
	}
	if rs.advanced {
		// A round held at the epoch-activation barrier completes its
		// advance once the round finalizes; the set for round+1 is settled
		// by then (applyChanges ran, or the change lost to a competing
		// block).
		if rs.barrier && rs.finalized {
			rs.barrier = false
			if rs.finalizedBlock != rs.advanceBlock {
				// A competing block finalized instead of the change block we
				// left through: re-anchor the exit on it (finalized parents
				// need no credentials).
				rs.advanceBlock = rs.finalizedBlock
				rs.advanceNotar = nil
				rs.advanceProof = nil
			}
			return true, e.enterRound(e.round+1, now, acts)
		}
		return false, acts
	}
	// Observers (non-members of the round's epoch) never cast a fast vote;
	// they leave the round on certificates alone.
	round, set := e.round, e.setFor(e.round)
	member := set.Contains(e.cfg.Self)
	if member && !rs.fastVoteSent && !e.cfg.DisableFastPath {
		return false, acts
	}
	id, ok := e.advanceCandidate(rs)
	if !ok {
		return false, acts
	}
	notar := rs.notarization(id)
	rs.advanced = true
	rs.advanceBlock = id
	rs.advanceNotar = notar
	if !e.cfg.DisableFastPath && !unlocksItself(notar, set) {
		rs.advanceProof = rs.buildUnlockProof(round, id, set.Params().UnlockThreshold())
	}
	if notar.Kind == types.CertFastFinalization {
		// The fast-finalization certificate is the notarization and the
		// unlock proof at once (absorbFast). Whoever formed it broadcast it
		// (line 58, in this very pass if this replica did), and that
		// CertMsg carries everything an Advance would: none is sent.
		e.met.advancesSkipped++
	} else {
		e.met.advances++
		acts = append(acts, protocol.Broadcast{Msg: &types.Advance{Notarization: notar, Unlock: rs.advanceProof}})
	}

	// Line 51: finalization vote if this replica notarization-voted for no
	// other block. Suppressed during WAL replay (a new signature); the
	// journaled vote, if one was cast, restores finalVoted instead. A round
	// already explicitly finalized here gets none either: the certificate
	// the vote would work toward exists, and this replica broadcast it a
	// moment ago if it formed it (ARCHITECTURE.md, "Deviations from the
	// paper", has the liveness argument).
	if member && !e.replaying && !rs.finalVoted && rs.votedOnlyFor(id) {
		if rs.finalized {
			e.met.finalVotesSuppressed++
		} else {
			fv := e.cfg.Signer.SignVote(types.VoteFinalize, round, id)
			rs.finalVoted = true
			rs.recordVote(types.VoteFinalize, id, e.cfg.Self, fv.Signature, set)
			e.met.votesSent++
			acts = append(acts, protocol.Broadcast{Msg: &types.VoteMsg{Votes: []types.Vote{fv}}})
		}
	}
	// Activation barrier: leaving a round through a ConfigChange block is
	// deferred until the round finalizes — entering round+1 earlier would
	// guess the next epoch. The Advance broadcast and finalization vote
	// above still go out (they are what *forms* the finalization), and
	// resends keep retrying while the barrier holds.
	if b := rs.block(id); b != nil && b.Payload.Change != nil &&
		!(rs.finalized && rs.finalizedBlock == id) {
		rs.barrier = true
		return true, acts
	}
	acts = e.enterRound(round+1, now, acts)
	return true, acts
}

// advanceCandidate picks a notarized and unlocked block to leave the round
// through: the finalized block if any, otherwise the lowest-rank notarized
// and unlocked block (ties to smaller ID for determinism).
func (e *Engine) advanceCandidate(rs *roundState) (types.BlockID, bool) {
	if rs.finalized {
		if rs.notarization(rs.finalizedBlock) != nil {
			return rs.finalizedBlock, true
		}
	}
	var (
		best  types.BlockID
		bestR types.Rank
		found bool
	)
	for id, r := range rs.byID {
		if r.notarization == nil || (!e.cfg.DisableFastPath && !rs.isUnlocked(id)) {
			continue
		}
		b := r.block
		if b == nil {
			// Certificate for a block we have not received: it is notarized
			// but we cannot know its rank; it is still a legitimate way out
			// of the round if unlocked.
			if !found {
				best, bestR, found = id, types.Rank(^uint16(0)), true
			}
			continue
		}
		if !found || b.Rank < bestR || (b.Rank == bestR && id.Compare(best) < 0) {
			best, bestR, found = id, b.Rank, true
		}
	}
	return best, found
}

// scheduleNotarTimers requests wake-ups at the notarization delays of
// received blocks whose delay has not yet elapsed (Algorithm 1 line 33's
// clock condition).
func (e *Engine) scheduleNotarTimers(now time.Time, acts []protocol.Action) []protocol.Action {
	rs := e.getRound(e.round)
	if !rs.started || rs.advanced {
		return acts
	}
	for _, r := range rs.byID {
		b := r.block
		if b == nil || !rs.markNotarTimer(b.Rank) {
			continue
		}
		at := rs.t0.Add(e.propDelay(b.Rank))
		if !now.Before(at) {
			continue // already elapsed; tryVote ran in this progress pass
		}
		acts = append(acts, protocol.SetTimer{
			ID: protocol.TimerID{Round: e.round, Kind: protocol.TimerNotarize, Rank: b.Rank},
			At: at,
		})
	}
	return acts
}

func (e *Engine) stop(err error) {
	if !e.stopped {
		e.stopped = true
		e.fault = err
	}
}

// Bounds on the retired rounds kept for reuse.
const (
	// maxSpareRounds caps the spare list. Finalization retires about one
	// round per round entered, so in steady state it holds 0–1; a jump
	// retires many at once, and the rest go to the collector.
	maxSpareRounds = 4
	// maxReusedRecords is the most block IDs a round may have named and
	// still be reused: a round flooded with IDs (a Byzantine voter's) goes
	// to the collector instead of pinning its records in the spare list.
	maxReusedRecords = 8
)

// retireRounds drops the rounds below floor and keeps them, reset, for
// getRound: nothing reads a round PruneKeep rounds below the finalized
// height (onProposal drops it as too old, and every other message for
// it is settled). A round past maxReusedRecords, or beyond a full spare
// list, is left to the collector. It walks the rounds held, not the
// round numbers below floor, so a snapshot or suffix-sync jump costs
// what is held.
func (e *Engine) retireRounds(floor types.Round) {
	if floor <= e.retiredBelow {
		return
	}
	e.retiredBelow = floor
	for r, rs := range e.rounds {
		if r >= floor {
			continue
		}
		delete(e.rounds, r)
		if len(e.spare) < maxSpareRounds && len(rs.byID) <= maxReusedRecords {
			rs.reset()
			e.spare = append(e.spare, rs)
		}
	}
}

// maybePrune retires the rounds below fin − PruneKeep as soon as the
// finalized height passes them, and drops the rest of the state below
// that floor — tree, batch store, external finalizations — each time the
// finalized height has advanced PruneKeep rounds past the last prune.
func (e *Engine) maybePrune() {
	fin := e.tree.FinalizedRound()
	if fin > e.cfg.PruneKeep {
		e.retireRounds(fin - e.cfg.PruneKeep)
	}
	if fin < e.lastPrune+e.cfg.PruneKeep {
		return
	}
	e.lastPrune = fin
	if fin <= e.cfg.PruneKeep {
		return
	}
	floor := fin - e.cfg.PruneKeep
	if e.cfg.Dissem != nil {
		e.cfg.Dissem.Compact(floor)
		e.dropStaleDeliveries(floor)
	}
	for r := range e.extFinal {
		if r < floor {
			delete(e.extFinal, r)
		}
	}
	if e.cfg.DeepPrune {
		e.tree.PruneDeep(floor)
	} else {
		e.tree.Prune(floor)
	}
}
