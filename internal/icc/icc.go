// Package icc implements the Internet Computer Consensus protocol (the
// Banyan paper's section 4, after Camenisch et al., PODC 2022) as an
// independent baseline engine.
//
// ICC is Banyan's slow path on its own: rounds proceed by rank-delayed
// block proposals, blocks are notarized with n−f notarization votes, a
// replica that notarization-voted for exactly one block in a round follows
// up with a finalization vote, and n−f finalization votes explicitly
// finalize a block — implicitly finalizing all its ancestors. Finalization
// therefore takes three communication steps (Remark 4.1): proposal,
// notarization votes, finalization votes.
//
// The engine structure deliberately parallels internal/core so that
// latency differences measured between the two protocols come from the
// protocol rules, not the implementation (the "treat all protocols
// equally" requirement of paper section 9.1).
package icc

import (
	"errors"
	"fmt"
	"time"

	"banyan/internal/blocktree"
	"banyan/internal/crypto"
	"banyan/internal/membership"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Config assembles everything an ICC engine instance needs.
type Config struct {
	// Set is the genesis validator set: its Params carry n and f (ICC
	// ignores p and uses n−f quorums), and its rotation gives every
	// round's ranks.
	Set *membership.ValidatorSet
	// Self is this replica's ID.
	Self types.ReplicaID
	// Keyring holds every replica's public key.
	Keyring *crypto.Keyring
	// Signer signs this replica's blocks and votes.
	Signer *crypto.Signer
	// Payloads supplies block payloads when this replica proposes.
	Payloads protocol.PayloadSource
	// Delta is the message-delay bound Δ; proposal and notarization delays
	// are 2Δ·rank.
	Delta time.Duration
	// DisableForwarding turns off the tip-forwarding relay (see
	// core.Config.DisableForwarding).
	DisableForwarding bool
}

// pruneKeep is how many rounds below the finalized height are retained,
// and the pruning cadence, as in core.Config.PruneKeep.
const pruneKeep types.Round = 16

func (c *Config) validate() error {
	if c.Set == nil {
		return errors.New("icc: validator set is required")
	}
	if c.Keyring == nil || c.Signer == nil {
		return errors.New("icc: keyring and signer are required")
	}
	if !c.Set.Contains(c.Self) {
		return fmt.Errorf("icc: self id %d not in the validator set", c.Self)
	}
	if c.Delta <= 0 {
		return errors.New("icc: Delta must be positive")
	}
	if c.Payloads == nil {
		c.Payloads = protocol.EmptyPayloads
	}
	return nil
}

// quorum is ICC's n−f threshold for notarizations and finalizations.
func (c *Config) quorum() int { return c.Set.Params().ICCQuorum() }

type roundState struct {
	started bool
	t0      time.Time

	proposed   bool
	advanced   bool
	finalVoted bool

	blocks  map[types.BlockID]*types.Block
	valid   map[types.BlockID]bool
	pending map[types.BlockID]*types.Proposal

	notarVoted map[types.BlockID]bool // N

	notarVotes map[types.BlockID]map[types.ReplicaID][]byte
	finalVotes map[types.BlockID]map[types.ReplicaID][]byte

	notarizations map[types.BlockID]*types.Certificate

	finalized      bool
	finalizedBlock types.BlockID

	advanceBlock types.BlockID
	advanceNotar *types.Certificate

	notarTimerSet map[types.Rank]bool
}

func newRoundState() *roundState {
	return &roundState{
		blocks:        make(map[types.BlockID]*types.Block),
		valid:         make(map[types.BlockID]bool),
		pending:       make(map[types.BlockID]*types.Proposal),
		notarVoted:    make(map[types.BlockID]bool),
		notarVotes:    make(map[types.BlockID]map[types.ReplicaID][]byte),
		finalVotes:    make(map[types.BlockID]map[types.ReplicaID][]byte),
		notarizations: make(map[types.BlockID]*types.Certificate),
		notarTimerSet: make(map[types.Rank]bool),
	}
}

// Engine is the ICC consensus state machine for one replica.
type Engine struct {
	cfg  Config
	tree *blocktree.Tree

	round  types.Round
	rounds map[types.Round]*roundState

	extFinal      map[types.Round]*types.Certificate
	pendingCommit map[types.BlockID]protocol.FinalizationMode

	// latestFinal is the highest-round finalization certificate seen;
	// catchupDirty flags that its chain is not yet committed. ICC has no
	// network catch-up: the chain's blocks arrive as ordinary proposals.
	latestFinal  *types.Certificate
	catchupDirty bool

	stopped bool
	fault   error

	lastPrune types.Round

	met struct {
		roundsStarted int64
		proposals     int64
		relays        int64
		votesSent     int64
		advances      int64
		slowFinal     int64
		indirectFinal int64
		blocksCommit  int64
		bytesCommit   int64
		rejected      int64
	}
}

var _ protocol.Engine = (*Engine)(nil)

// New builds an ICC engine from the configuration.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg:           cfg,
		tree:          blocktree.New(),
		rounds:        make(map[types.Round]*roundState),
		extFinal:      make(map[types.Round]*types.Certificate),
		pendingCommit: make(map[types.BlockID]protocol.FinalizationMode),
	}, nil
}

// ID implements protocol.Engine.
func (e *Engine) ID() types.ReplicaID { return e.cfg.Self }

// Protocol implements protocol.Engine.
func (e *Engine) Protocol() string { return "icc" }

// Round returns the current round (tests/harness).
func (e *Engine) Round() types.Round { return e.round }

// Tree exposes the block tree (tests/harness).
func (e *Engine) Tree() *blocktree.Tree { return e.tree }

// Start implements protocol.Engine.
func (e *Engine) Start(now time.Time) []protocol.Action {
	var acts []protocol.Action
	acts = e.enterRound(1, now, acts)
	return e.progress(now, acts)
}

// HandleMessage implements protocol.Engine.
func (e *Engine) HandleMessage(from types.ReplicaID, msg types.Message, now time.Time) []protocol.Action {
	if e.stopped || !e.cfg.Set.Contains(from) {
		return nil
	}
	switch m := msg.(type) {
	case *types.Proposal:
		e.onProposal(m)
	case *types.VoteMsg:
		for _, v := range m.Votes {
			e.onVote(v)
		}
	case *types.CertMsg:
		e.onCert(m.Cert)
	case *types.Advance:
		e.onCert(m.Notarization)
	default:
		e.met.rejected++
		return nil
	}
	return e.progress(now, nil)
}

// HandleTimer implements protocol.Engine.
func (e *Engine) HandleTimer(_ protocol.TimerID, now time.Time) []protocol.Action {
	if e.stopped {
		return nil
	}
	return e.progress(now, nil)
}

// Metrics implements protocol.Engine.
func (e *Engine) Metrics() map[string]int64 {
	return map[string]int64{
		"rounds":         e.met.roundsStarted,
		"proposals":      e.met.proposals,
		"relays":         e.met.relays,
		"votes_sent":     e.met.votesSent,
		"advances":       e.met.advances,
		"final_slow":     e.met.slowFinal,
		"final_indirect": e.met.indirectFinal,
		"blocks_commit":  e.met.blocksCommit,
		"bytes_commit":   e.met.bytesCommit,
		"rejected":       e.met.rejected,
	}
}

// ---------------------------------------------------------------------------
// Ingestion.

func (e *Engine) onProposal(m *types.Proposal) {
	b := m.Block
	if b == nil || b.Round < 1 || !e.cfg.Set.Contains(b.Proposer) {
		e.met.rejected++
		return
	}
	if b.Round+pruneKeep <= e.tree.FinalizedRound() {
		return
	}
	if b.Rank != e.cfg.Set.RankOf(b.Round, b.Proposer) {
		e.met.rejected++
		return
	}
	rs := e.getRound(b.Round)
	id := b.ID()
	if _, known := rs.blocks[id]; !known {
		if err := crypto.VerifyBlock(e.cfg.Keyring, b); err != nil {
			e.met.rejected++
			return
		}
		rs.blocks[id] = b
		e.tree.Add(b)
		if !rs.valid[id] {
			rs.pending[id] = m
		}
	}
	if m.ParentNotarization != nil {
		e.onCert(m.ParentNotarization)
	}
}

func (e *Engine) onVote(v types.Vote) {
	if v.Round < 1 || !e.cfg.Set.Contains(v.Voter) {
		e.met.rejected++
		return
	}
	if v.Round+pruneKeep <= e.tree.FinalizedRound() {
		return
	}
	rs := e.getRound(v.Round)
	var ledger map[types.BlockID]map[types.ReplicaID][]byte
	switch v.Kind {
	case types.VoteNotarize:
		ledger = rs.notarVotes
	case types.VoteFinalize:
		ledger = rs.finalVotes
	default:
		// ICC has no fast votes; ignore silently so mixed-protocol test
		// rigs do not pollute the rejected counter.
		return
	}
	if _, dup := ledger[v.Block][v.Voter]; dup {
		return
	}
	if err := crypto.VerifyVote(e.cfg.Keyring, v); err != nil {
		e.met.rejected++
		return
	}
	m, ok := ledger[v.Block]
	if !ok {
		m = make(map[types.ReplicaID][]byte)
		ledger[v.Block] = m
	}
	m[v.Voter] = v.Signature
}

func (e *Engine) onCert(c *types.Certificate) {
	if c == nil || c.Round < 1 {
		return
	}
	if c.Round+pruneKeep <= e.tree.FinalizedRound() {
		return
	}
	rs := e.getRound(c.Round)
	switch c.Kind {
	case types.CertNotarization:
		if rs.notarizations[c.Block] != nil {
			return
		}
		if err := crypto.VerifyCert(e.cfg.Keyring, c, e.cfg.quorum()); err != nil {
			e.met.rejected++
			return
		}
		rs.notarizations[c.Block] = c
		e.tree.MarkNotarized(c.Block)
	case types.CertFinalization:
		if rs.finalized || e.extFinal[c.Round] != nil {
			return
		}
		if err := crypto.VerifyCert(e.cfg.Keyring, c, e.cfg.quorum()); err != nil {
			e.met.rejected++
			return
		}
		if c.Round <= e.round+1 {
			e.extFinal[c.Round] = c
		}
		e.noteFinalCert(c)
	default:
		e.met.rejected++
	}
}

// ---------------------------------------------------------------------------
// Progress loop.

func (e *Engine) progress(now time.Time, acts []protocol.Action) []protocol.Action {
	for {
		changed := false
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
	acts = e.commitLatestFinal(now, acts)
	e.maybePrune()
	return acts
}

// noteFinalCert remembers the highest-round finalization certificate and
// flags its chain for commitLatestFinal when it lies past the next round.
func (e *Engine) noteFinalCert(c *types.Certificate) {
	if e.latestFinal == nil || c.Round > e.latestFinal.Round {
		e.latestFinal = c
		if c.Round > e.round+1 {
			e.catchupDirty = true
		}
	}
}

// tryJump fast-forwards past rounds the cluster has already finalized;
// see core.Engine.tryJump for the safety argument.
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
	acts = e.enterRound(fin+1, now, acts)
	return true, acts
}

// commitLatestFinal commits the chain under latestFinal once all its
// blocks are present, then fast-forwards past the finalized rounds.
func (e *Engine) commitLatestFinal(now time.Time, acts []protocol.Action) []protocol.Action {
	if !e.catchupDirty {
		return acts
	}
	if e.latestFinal.Round <= e.tree.FinalizedRound() {
		e.catchupDirty = false
		return acts
	}
	acts, done := e.commitChain(e.latestFinal.Block, protocol.FinalizeIndirect, acts)
	if !done {
		return acts
	}
	e.catchupDirty = false
	_, acts = e.tryJump(now, acts)
	return acts
}

func (e *Engine) getRound(r types.Round) *roundState {
	rs, ok := e.rounds[r]
	if !ok {
		rs = newRoundState()
		e.rounds[r] = rs
	}
	return rs
}

func (e *Engine) enterRound(r types.Round, now time.Time, acts []protocol.Action) []protocol.Action {
	e.round = r
	rs := e.getRound(r)
	rs.started = true
	rs.t0 = now
	e.met.roundsStarted++
	rank := e.cfg.Set.RankOf(r, e.cfg.Self)
	if rank > 0 {
		acts = append(acts, protocol.SetTimer{
			ID: protocol.TimerID{Round: r, Kind: protocol.TimerPropose, Rank: rank},
			At: now.Add(e.delay(rank)),
		})
	}
	return acts
}

func (e *Engine) delay(rank types.Rank) time.Duration {
	return 2 * e.cfg.Delta * time.Duration(rank)
}

func (e *Engine) revalidate() bool {
	changed := false
	for r := e.tree.FinalizedRound(); r <= e.round+1; r++ {
		rs, ok := e.rounds[r]
		if !ok {
			continue
		}
		for id, p := range rs.pending {
			if !e.parentOK(p.Block) {
				continue
			}
			rs.valid[id] = true
			delete(rs.pending, id)
			changed = true
		}
	}
	return changed
}

// parentOK: the block extends a notarized round-(k−1) block (ICC validity).
func (e *Engine) parentOK(b *types.Block) bool {
	if b.Round == 1 {
		return b.Parent == e.tree.Genesis().ID()
	}
	if e.tree.IsFinalized(b.Parent) {
		return true
	}
	prev, ok := e.rounds[b.Round-1]
	if !ok {
		return false
	}
	return prev.notarizations[b.Parent] != nil || e.tree.IsNotarized(b.Parent)
}

func (e *Engine) tryPropose(now time.Time, acts []protocol.Action) (bool, []protocol.Action) {
	rs := e.getRound(e.round)
	if !rs.started || rs.proposed || rs.advanced {
		return false, acts
	}
	rank := e.cfg.Set.RankOf(e.round, e.cfg.Self)
	if now.Before(rs.t0.Add(e.delay(rank))) {
		return false, acts
	}
	parentID, parentNotar := e.parentCreds(e.round)
	payload := e.cfg.Payloads.NextPayload(e.round)
	b := types.NewBlock(e.round, e.cfg.Self, rank, parentID, payload)
	if err := e.cfg.Signer.SignBlock(b); err != nil {
		e.stop(fmt.Errorf("icc: signing own block: %w", err))
		return true, acts
	}
	id := b.ID()
	rs.blocks[id] = b
	rs.valid[id] = true
	e.tree.Add(b)
	rs.proposed = true
	e.met.proposals++
	return true, append(acts, protocol.Broadcast{Msg: &types.Proposal{
		Block:              b,
		ParentNotarization: parentNotar,
	}})
}

func (e *Engine) parentCreds(r types.Round) (types.BlockID, *types.Certificate) {
	if r == 1 {
		return e.tree.Genesis().ID(), nil
	}
	prev := e.getRound(r - 1)
	return prev.advanceBlock, prev.advanceNotar
}

func (e *Engine) tryVote(now time.Time, acts []protocol.Action) (bool, []protocol.Action) {
	rs := e.getRound(e.round)
	if !rs.started || rs.advanced {
		return false, acts
	}
	minRank, found := types.Rank(0), false
	for id := range rs.valid {
		b := rs.blocks[id]
		if !found || b.Rank < minRank {
			minRank, found = b.Rank, true
		}
	}
	if !found || now.Before(rs.t0.Add(e.delay(minRank))) {
		return false, acts
	}
	changed := false
	myRank := e.cfg.Set.RankOf(e.round, e.cfg.Self)
	for id := range rs.valid {
		b := rs.blocks[id]
		if b.Rank != minRank || rs.notarVoted[id] {
			continue
		}
		rs.notarVoted[id] = true
		changed = true
		if b.Rank != myRank && !e.cfg.DisableForwarding {
			p := &types.Proposal{Block: b, Relayed: true}
			if b.Round > 1 && !e.tree.IsFinalized(b.Parent) {
				p.ParentNotarization = e.getRound(b.Round - 1).notarizations[b.Parent]
			}
			acts = append(acts, protocol.Broadcast{Msg: p})
			e.met.relays++
		}
		nv := e.cfg.Signer.SignVote(types.VoteNotarize, e.round, id)
		if m, ok := rs.notarVotes[id]; ok {
			m[e.cfg.Self] = nv.Signature
		} else {
			rs.notarVotes[id] = map[types.ReplicaID][]byte{e.cfg.Self: nv.Signature}
		}
		e.met.votesSent++
		acts = append(acts, protocol.Broadcast{Msg: &types.VoteMsg{Votes: []types.Vote{nv}}})
	}
	return changed, acts
}

func (e *Engine) tryNotarize(acts []protocol.Action) (bool, []protocol.Action) {
	changed := false
	for r := e.tree.FinalizedRound(); r <= e.round; r++ {
		rs, ok := e.rounds[r]
		if !ok {
			continue
		}
		for id, votes := range rs.notarVotes {
			if len(votes) < e.cfg.quorum() || rs.notarizations[id] != nil {
				continue
			}
			vs := make([]types.Vote, 0, len(votes))
			for voter, sig := range votes {
				vs = append(vs, types.Vote{
					Kind: types.VoteNotarize, Round: r, Block: id, Voter: voter, Signature: sig,
				})
			}
			cert, err := types.NewCertificate(types.CertNotarization, r, id, vs)
			if err != nil {
				continue
			}
			rs.notarizations[id] = cert
			e.tree.MarkNotarized(id)
			changed = true
		}
	}
	return changed, acts
}

func (e *Engine) tryFinalize(acts []protocol.Action) (bool, []protocol.Action) {
	changed := false
	for r := e.tree.FinalizedRound() + 1; r <= e.round; r++ {
		rs, ok := e.rounds[r]
		if !ok || rs.finalized {
			continue
		}
		if cert := e.extFinal[r]; cert != nil {
			changed = true
			acts = e.finalizeExplicit(rs, cert, protocol.FinalizeIndirect, acts)
			continue
		}
		for id, votes := range rs.finalVotes {
			if len(votes) < e.cfg.quorum() {
				continue
			}
			vs := make([]types.Vote, 0, len(votes))
			for voter, sig := range votes {
				vs = append(vs, types.Vote{
					Kind: types.VoteFinalize, Round: r, Block: id, Voter: voter, Signature: sig,
				})
			}
			cert, err := types.NewCertificate(types.CertFinalization, r, id, vs)
			if err != nil {
				continue
			}
			changed = true
			acts = e.finalizeExplicit(rs, cert, protocol.FinalizeSlow, acts)
			break
		}
	}
	for id, mode := range e.pendingCommit {
		var done bool
		acts, done = e.commitChain(id, mode, acts)
		if done {
			delete(e.pendingCommit, id)
			changed = true
		}
	}
	return changed, acts
}

func (e *Engine) finalizeExplicit(rs *roundState, cert *types.Certificate,
	mode protocol.FinalizationMode, acts []protocol.Action) []protocol.Action {
	rs.finalized = true
	rs.finalizedBlock = cert.Block
	e.noteFinalCert(cert)
	if mode == protocol.FinalizeSlow {
		e.met.slowFinal++
		acts = append(acts, protocol.Broadcast{Msg: &types.CertMsg{Cert: cert}})
	} else {
		e.met.indirectFinal++
	}
	acts, done := e.commitChain(cert.Block, mode, acts)
	if !done {
		e.pendingCommit[cert.Block] = mode
	}
	return acts
}

func (e *Engine) commitChain(id types.BlockID, mode protocol.FinalizationMode,
	acts []protocol.Action) ([]protocol.Action, bool) {
	chain, err := e.tree.Finalize(id)
	switch {
	case err == nil:
		if len(chain) > 0 {
			for _, b := range chain {
				e.met.blocksCommit++
				e.met.bytesCommit += int64(b.Payload.Size())
			}
			acts = append(acts, protocol.Commit{Blocks: chain, Explicit: mode})
		}
		return acts, true
	case errors.Is(err, blocktree.ErrMissingAncestor):
		return acts, false
	default:
		e.stop(err)
		return acts, true
	}
}

// tryAdvance: ICC moves to the next round as soon as some block of the
// current round is notarized (paper section 4, "Notarization"); the
// replica broadcasts the notarization, and sends a finalization vote if it
// notarization-voted for no other block.
func (e *Engine) tryAdvance(now time.Time, acts []protocol.Action) (bool, []protocol.Action) {
	rs := e.getRound(e.round)
	if !rs.started || rs.advanced {
		return false, acts
	}
	var (
		best  types.BlockID
		bestR types.Rank
		found bool
	)
	for id := range rs.notarizations {
		b, ok := rs.blocks[id]
		if !ok {
			if !found {
				best, bestR, found = id, types.Rank(^uint16(0)), true
			}
			continue
		}
		if !found || b.Rank < bestR {
			best, bestR, found = id, b.Rank, true
		}
	}
	if !found {
		return false, acts
	}
	round := e.round
	rs.advanced = true
	rs.advanceBlock = best
	rs.advanceNotar = rs.notarizations[best]
	e.met.advances++
	acts = append(acts, protocol.Broadcast{Msg: &types.Advance{Notarization: rs.advanceNotar}})

	if !rs.finalVoted && nSubsetOf(rs.notarVoted, best) {
		fv := e.cfg.Signer.SignVote(types.VoteFinalize, round, best)
		rs.finalVoted = true
		if m, ok := rs.finalVotes[best]; ok {
			m[e.cfg.Self] = fv.Signature
		} else {
			rs.finalVotes[best] = map[types.ReplicaID][]byte{e.cfg.Self: fv.Signature}
		}
		e.met.votesSent++
		acts = append(acts, protocol.Broadcast{Msg: &types.VoteMsg{Votes: []types.Vote{fv}}})
	}
	acts = e.enterRound(round+1, now, acts)
	return true, acts
}

func nSubsetOf(n map[types.BlockID]bool, b types.BlockID) bool {
	for id := range n {
		if id != b {
			return false
		}
	}
	return true
}

func (e *Engine) scheduleNotarTimers(now time.Time, acts []protocol.Action) []protocol.Action {
	rs := e.getRound(e.round)
	if !rs.started || rs.advanced {
		return acts
	}
	for id := range rs.blocks {
		b := rs.blocks[id]
		if rs.notarTimerSet[b.Rank] {
			continue
		}
		rs.notarTimerSet[b.Rank] = true
		at := rs.t0.Add(e.delay(b.Rank))
		if !now.Before(at) {
			continue
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

func (e *Engine) maybePrune() {
	fin := e.tree.FinalizedRound()
	if fin < e.lastPrune+pruneKeep {
		return
	}
	e.lastPrune = fin
	if fin <= pruneKeep {
		return
	}
	floor := fin - pruneKeep
	for r := range e.rounds {
		if r < floor {
			delete(e.rounds, r)
		}
	}
	for r := range e.extFinal {
		if r < floor {
			delete(e.extFinal, r)
		}
	}
	e.tree.Prune(floor)
}
