// Package hotstuff implements chained (event-driven) HotStuff with a
// rotating-leader pacemaker — the baseline the paper inherits from the
// Bamboo framework (Yin et al., PODC 2019; Gai et al., ICDCS 2021).
//
// Views carry one block each: the view's leader proposes a block justified
// by the highest quorum certificate (QC) it knows, replicas vote to the
// *next* leader, and 2f+1 votes form the QC that justifies the next block.
// A block commits when it heads a three-chain of blocks with consecutive
// views and direct parent links (the 3-chain commit rule), so the proposer
// observes finalization of its block roughly seven message delays after
// proposing — the latency gap to ICC/Banyan that Figure 6 quantifies.
//
// Leaders rotate round-robin and a view ends only when its QC forms: there
// is no pacemaker, so no view timeout and no NewView message. The engine
// is built for the paper's fault-free comparison runs (Figures 6a, 6b and
// 6e); a crashed leader stalls it for ever, and the harness refuses to
// crash a HotStuff replica.
package hotstuff

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

// Config assembles everything a HotStuff engine instance needs.
type Config struct {
	// Set is the genesis validator set: its Params carry n and f (quorums
	// are 2f+1), and its rotation gives every view's leader.
	Set *membership.ValidatorSet
	// Self is this replica's ID.
	Self types.ReplicaID
	// Keyring holds every replica's public key.
	Keyring *crypto.Keyring
	// Signer signs this replica's blocks and votes.
	Signer *crypto.Signer
	// Payloads supplies block payloads when this replica leads.
	Payloads protocol.PayloadSource
}

func (c *Config) validate() error {
	if c.Set == nil {
		return errors.New("hotstuff: validator set is required")
	}
	if c.Keyring == nil || c.Signer == nil {
		return errors.New("hotstuff: keyring and signer are required")
	}
	if !c.Set.Contains(c.Self) {
		return fmt.Errorf("hotstuff: self id %d not in the validator set", c.Self)
	}
	if c.Payloads == nil {
		c.Payloads = protocol.EmptyPayloads
	}
	return nil
}

// quorum is 2f+1.
func (c *Config) quorum() int { return 2*c.Set.Params().F + 1 }

// Engine is the chained-HotStuff state machine for one replica.
type Engine struct {
	cfg  Config
	tree *blocktree.Tree

	view      types.Round // current view
	lastVoted types.Round // highest view voted in

	// highQC is the highest quorum certificate known; nil stands for the
	// implicit QC of the genesis block.
	highQC *types.Certificate
	// locked is the block of the highest 2-chain head seen (lockedQC.node);
	// zero value means genesis.
	locked     types.BlockID
	lockedView types.Round

	// votes collects view votes by block: view -> block -> voter -> sig.
	votes map[types.Round]map[types.BlockID]map[types.ReplicaID][]byte
	// proposedIn marks views in which this replica already proposed.
	proposedIn map[types.Round]bool

	stopped bool
	fault   error

	met struct {
		proposals    int64
		votesSent    int64
		qcFormed     int64
		commits      int64
		blocksCommit int64
		bytesCommit  int64
		rejected     int64
	}
}

var _ protocol.Engine = (*Engine)(nil)

// New builds a HotStuff engine from the configuration.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		tree:       blocktree.New(),
		votes:      make(map[types.Round]map[types.BlockID]map[types.ReplicaID][]byte),
		proposedIn: make(map[types.Round]bool),
	}
	e.locked = e.tree.Genesis().ID()
	return e, nil
}

// ID implements protocol.Engine.
func (e *Engine) ID() types.ReplicaID { return e.cfg.Self }

// Protocol implements protocol.Engine.
func (e *Engine) Protocol() string { return "hotstuff" }

// Tree exposes the block tree (tests/harness).
func (e *Engine) Tree() *blocktree.Tree { return e.tree }

// Start implements protocol.Engine: enter view 1.
func (e *Engine) Start(now time.Time) []protocol.Action {
	var acts []protocol.Action
	acts = e.enterView(1, now, acts)
	return acts
}

// HandleMessage implements protocol.Engine.
func (e *Engine) HandleMessage(from types.ReplicaID, msg types.Message, now time.Time) []protocol.Action {
	if e.stopped || !e.cfg.Set.Contains(from) {
		return nil
	}
	var acts []protocol.Action
	switch m := msg.(type) {
	case *types.Proposal:
		acts = e.onProposal(m, now, acts)
	case *types.VoteMsg:
		for _, v := range m.Votes {
			acts = e.onVote(v, now, acts)
		}
	default:
		e.met.rejected++
	}
	return e.drainFault(acts)
}

// HandleTimer implements protocol.Engine: the engine sets no timers.
func (e *Engine) HandleTimer(protocol.TimerID, time.Time) []protocol.Action { return nil }

// Metrics implements protocol.Engine.
func (e *Engine) Metrics() map[string]int64 {
	return map[string]int64{
		"proposals":     e.met.proposals,
		"votes_sent":    e.met.votesSent,
		"qc_formed":     e.met.qcFormed,
		"commits":       e.met.commits,
		"blocks_commit": e.met.blocksCommit,
		"bytes_commit":  e.met.bytesCommit,
		"rejected":      e.met.rejected,
		"rounds":        int64(e.view),
	}
}

// ---------------------------------------------------------------------------

// enterView advances to the given view, proposing if this replica leads it
// and already holds the justification.
func (e *Engine) enterView(v types.Round, now time.Time, acts []protocol.Action) []protocol.Action {
	if v > e.view {
		e.view = v
	}
	e.prune()
	return e.tryPropose(now, acts)
}

// prune bounds per-view book-keeping and the block store.
func (e *Engine) prune() {
	const keep = 128
	if e.view <= keep {
		return
	}
	floor := e.view - keep
	for v := range e.votes {
		if v < floor {
			delete(e.votes, v)
		}
	}
	for v := range e.proposedIn {
		if v < floor {
			delete(e.proposedIn, v)
		}
	}
	if fin := e.tree.FinalizedRound(); fin > keep {
		e.tree.Prune(fin - keep)
	}
}

// qcView returns the view certified by a QC (0 for the genesis sentinel).
func qcView(qc *types.Certificate) types.Round {
	if qc == nil {
		return 0
	}
	return qc.Round
}

// qcBlock returns the block a QC certifies (genesis for the nil sentinel).
func (e *Engine) qcBlock(qc *types.Certificate) types.BlockID {
	if qc == nil {
		return e.tree.Genesis().ID()
	}
	return qc.Block
}

// tryPropose proposes in the current view if this replica is its leader
// and holds a QC for the previous view.
func (e *Engine) tryPropose(now time.Time, acts []protocol.Action) []protocol.Action {
	v := e.view
	if e.proposedIn[v] || e.cfg.Set.Leader(v) != e.cfg.Self || qcView(e.highQC) != v-1 {
		return acts
	}
	parent := e.qcBlock(e.highQC)
	payload := e.cfg.Payloads.NextPayload(v)
	b := types.NewBlock(v, e.cfg.Self, 0, parent, payload)
	if err := e.cfg.Signer.SignBlock(b); err != nil {
		e.stop(fmt.Errorf("hotstuff: signing own block: %w", err))
		return acts
	}
	e.proposedIn[v] = true
	e.tree.Add(b)
	e.met.proposals++
	prop := &types.Proposal{Block: b, ParentNotarization: e.highQC}
	acts = append(acts, protocol.Broadcast{Msg: prop})
	// Process our own proposal: vote and update chains.
	return e.onProposal(prop, now, acts)
}

// onProposal validates a proposal, applies the chained-HotStuff update
// rule, and votes if the safety rule allows.
func (e *Engine) onProposal(m *types.Proposal, now time.Time, acts []protocol.Action) []protocol.Action {
	b := m.Block
	if b == nil || b.Round < 1 || !e.cfg.Set.Contains(b.Proposer) {
		e.met.rejected++
		return acts
	}
	// The proposer must lead the block's view.
	if e.cfg.Set.Leader(b.Round) != b.Proposer || b.Rank != 0 {
		e.met.rejected++
		return acts
	}
	if b.Proposer != e.cfg.Self {
		if err := crypto.VerifyBlock(e.cfg.Keyring, b); err != nil {
			e.met.rejected++
			return acts
		}
	}
	qc := m.ParentNotarization
	if qc != nil {
		if err := e.checkQC(qc); err != nil {
			e.met.rejected++
			return acts
		}
	}
	// The block must extend the QC's block.
	if b.Parent != e.qcBlock(qc) {
		e.met.rejected++
		return acts
	}
	e.tree.Add(b)
	acts = e.update(qc, acts)

	// Safety rule: vote once per view, for blocks that extend the locked
	// block or carry a higher justify than the lock.
	if b.Round <= e.lastVoted {
		return acts
	}
	safe := e.extendsLocked(b) || qcView(qc) > e.lockedView
	if !safe {
		return acts
	}
	e.lastVoted = b.Round
	vote := e.cfg.Signer.SignVote(types.VoteNotarize, b.Round, b.ID())
	next := e.cfg.Set.Leader(b.Round + 1)
	e.met.votesSent++
	if next == e.cfg.Self {
		acts = e.onVote(vote, now, acts)
	} else {
		acts = append(acts, protocol.Send{To: next, Msg: &types.VoteMsg{Votes: []types.Vote{vote}}})
	}
	// Seeing a valid proposal for view v implies a QC chain justifying
	// view v; follow the proposer into the view.
	if b.Round > e.view {
		acts = e.enterView(b.Round, now, acts)
	}
	return acts
}

// extendsLocked walks b's ancestry to check it extends the locked block.
func (e *Engine) extendsLocked(b *types.Block) bool {
	if e.locked == e.tree.Genesis().ID() {
		return true
	}
	cur := b
	for {
		if cur.Parent == e.locked {
			return true
		}
		parent, ok := e.tree.Block(cur.Parent)
		if !ok || parent.Round <= e.lockedView {
			return false
		}
		cur = parent
	}
}

// update is the chained-HotStuff three-phase update (Yin et al.,
// Algorithm 5): advance highQC, lock on the 2-chain head, commit the
// 3-chain head when parent links are direct.
func (e *Engine) update(qc *types.Certificate, acts []protocol.Action) []protocol.Action {
	if qc == nil {
		return acts
	}
	if qcView(qc) > qcView(e.highQC) {
		e.highQC = qc
	}
	b2, ok := e.tree.Block(qc.Block) // head of 1-chain
	if !ok {
		return acts
	}
	b1, ok := e.tree.Block(b2.Parent) // head of 2-chain
	if !ok || b1.IsGenesis() {
		return acts
	}
	if b1.Round > e.lockedView {
		e.locked = b1.ID()
		e.lockedView = b1.Round
	}
	b0, ok := e.tree.Block(b1.Parent) // head of 3-chain
	if !ok || b0.IsGenesis() {
		return acts
	}
	// Commit rule: direct parents with consecutive views.
	if b2.Round == b1.Round+1 && b1.Round == b0.Round+1 {
		acts = e.commit(b0, acts)
	}
	return acts
}

func (e *Engine) commit(b *types.Block, acts []protocol.Action) []protocol.Action {
	if e.tree.IsFinalized(b.ID()) {
		return acts
	}
	chain, err := e.tree.Finalize(b.ID())
	switch {
	case err == nil:
		if len(chain) > 0 {
			for _, blk := range chain {
				e.met.blocksCommit++
				e.met.bytesCommit += int64(blk.Payload.Size())
			}
			e.met.commits++
			acts = append(acts, protocol.Commit{Blocks: chain, Explicit: protocol.FinalizeSlow})
		}
	case errors.Is(err, blocktree.ErrMissingAncestor):
		// Blocks arrive before ancestors only under heavy reordering; the
		// next commit attempt retries.
	default:
		e.stop(err)
	}
	return acts
}

// onVote collects view votes; the leader of the next view forms a QC at
// quorum and proposes immediately (optimistic responsiveness).
func (e *Engine) onVote(v types.Vote, now time.Time, acts []protocol.Action) []protocol.Action {
	if v.Kind != types.VoteNotarize || v.Round < 1 || !e.cfg.Set.Contains(v.Voter) {
		e.met.rejected++
		return acts
	}
	// Only the leader of view v+1 aggregates votes of view v.
	if e.cfg.Set.Leader(v.Round+1) != e.cfg.Self {
		return acts
	}
	byBlock, ok := e.votes[v.Round]
	if !ok {
		byBlock = make(map[types.BlockID]map[types.ReplicaID][]byte)
		e.votes[v.Round] = byBlock
	}
	if _, dup := byBlock[v.Block][v.Voter]; dup {
		return acts
	}
	if v.Voter != e.cfg.Self {
		if err := crypto.VerifyVote(e.cfg.Keyring, v); err != nil {
			e.met.rejected++
			return acts
		}
	}
	m, ok := byBlock[v.Block]
	if !ok {
		m = make(map[types.ReplicaID][]byte)
		byBlock[v.Block] = m
	}
	m[v.Voter] = v.Signature
	if len(m) != e.cfg.quorum() {
		// Below quorum, or the QC for this block was already formed when
		// the quorum-th vote arrived.
		return acts
	}
	votes := make([]types.Vote, 0, len(m))
	for voter, sig := range m {
		votes = append(votes, types.Vote{
			Kind: types.VoteNotarize, Round: v.Round, Block: v.Block, Voter: voter, Signature: sig,
		})
	}
	qc, err := types.NewCertificate(types.CertNotarization, v.Round, v.Block, votes)
	if err != nil {
		return acts
	}
	e.met.qcFormed++
	e.tree.MarkNotarized(v.Block)
	acts = e.update(qc, acts)
	return e.enterView(v.Round+1, now, acts)
}

// checkQC verifies a QC once and caches acceptance via the block tree's
// notarization mark.
func (e *Engine) checkQC(qc *types.Certificate) error {
	if qc.Kind != types.CertNotarization {
		return fmt.Errorf("hotstuff: unexpected certificate kind %v", qc.Kind)
	}
	if e.tree.IsNotarized(qc.Block) {
		return nil
	}
	if err := crypto.VerifyCert(e.cfg.Keyring, qc, e.cfg.quorum()); err != nil {
		return err
	}
	e.tree.MarkNotarized(qc.Block)
	return nil
}

func (e *Engine) drainFault(acts []protocol.Action) []protocol.Action {
	if e.stopped && e.fault != nil {
		acts = append(acts, protocol.SafetyFault{Err: e.fault})
		e.fault = nil
	}
	return acts
}

func (e *Engine) stop(err error) {
	if !e.stopped {
		e.stopped = true
		e.fault = err
	}
}
