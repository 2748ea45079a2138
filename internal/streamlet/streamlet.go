// Package streamlet implements the Streamlet protocol (Chan & Shi, AFT
// 2020), the second baseline shipped with the Bamboo framework.
//
// Time is divided into synchronized epochs of length 2Δ. The epoch's
// leader proposes a block extending a longest notarized chain it has seen;
// every replica broadcasts a vote for the first valid epoch proposal that
// extends one of its longest notarized chains; a block with n−f votes is
// notarized. When three notarized blocks with consecutive epoch numbers
// chain directly, the prefix ending at the middle block is final.
// Epoch-clocked operation makes Streamlet's latency proportional to Δ (the
// pessimistic bound) rather than δ (the actual delay) — the 6Δ row of
// Table 1, and the slowest line of Figure 6.
package streamlet

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

// Config assembles everything a Streamlet engine instance needs.
type Config struct {
	// Set is the genesis validator set: its Params carry n and f (the vote
	// quorum is n−f), and its rotation gives every epoch's leader.
	Set *membership.ValidatorSet
	// Self is this replica's ID.
	Self types.ReplicaID
	// Keyring holds every replica's public key.
	Keyring *crypto.Keyring
	// Signer signs this replica's blocks and votes.
	Signer *crypto.Signer
	// Payloads supplies block payloads when this replica leads.
	Payloads protocol.PayloadSource
	// EpochDuration is the epoch length (the protocol prescribes 2Δ).
	EpochDuration time.Duration
}

// pruneKeep bounds retained epochs below the finalized height.
const pruneKeep types.Round = 64

func (c *Config) validate() error {
	if c.Set == nil {
		return errors.New("streamlet: validator set is required")
	}
	if c.Keyring == nil || c.Signer == nil {
		return errors.New("streamlet: keyring and signer are required")
	}
	if !c.Set.Contains(c.Self) {
		return fmt.Errorf("streamlet: self id %d not in the validator set", c.Self)
	}
	if c.EpochDuration <= 0 {
		return errors.New("streamlet: EpochDuration must be positive")
	}
	if c.Payloads == nil {
		c.Payloads = protocol.EmptyPayloads
	}
	return nil
}

func (c *Config) quorum() int {
	p := c.Set.Params()
	return p.N - p.F
}

// Engine is the Streamlet state machine for one replica.
type Engine struct {
	cfg  Config
	tree *blocktree.Tree

	start time.Time   // epoch clock origin
	epoch types.Round // current epoch

	votes      map[types.Round]map[types.BlockID]map[types.ReplicaID][]byte
	votedIn    map[types.Round]bool
	proposedIn map[types.Round]bool

	// chainLen memoizes notarized-chain length; -1 while unknown.
	chainLen map[types.BlockID]int
	maxLen   int

	stopped bool
	fault   error

	met struct {
		proposals    int64
		votesSent    int64
		notarized    int64
		blocksCommit int64
		bytesCommit  int64
		rejected     int64
	}
}

var _ protocol.Engine = (*Engine)(nil)

// New builds a Streamlet engine from the configuration.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:        cfg,
		tree:       blocktree.New(),
		votes:      make(map[types.Round]map[types.BlockID]map[types.ReplicaID][]byte),
		votedIn:    make(map[types.Round]bool),
		proposedIn: make(map[types.Round]bool),
		chainLen:   make(map[types.BlockID]int),
	}
	e.chainLen[e.tree.Genesis().ID()] = 0
	return e, nil
}

// ID implements protocol.Engine.
func (e *Engine) ID() types.ReplicaID { return e.cfg.Self }

// Protocol implements protocol.Engine.
func (e *Engine) Protocol() string { return "streamlet" }

// Epoch returns the current epoch (tests/harness).
func (e *Engine) Epoch() types.Round { return e.epoch }

// Tree exposes the block tree (tests/harness).
func (e *Engine) Tree() *blocktree.Tree { return e.tree }

// Start implements protocol.Engine: epoch 1 begins immediately.
func (e *Engine) Start(now time.Time) []protocol.Action {
	e.start = now
	return e.enterEpoch(1, now, nil)
}

// HandleMessage implements protocol.Engine.
func (e *Engine) HandleMessage(from types.ReplicaID, msg types.Message, now time.Time) []protocol.Action {
	if e.stopped || !e.cfg.Set.Contains(from) {
		return nil
	}
	var acts []protocol.Action
	switch m := msg.(type) {
	case *types.Proposal:
		acts = e.onProposal(m, acts)
	case *types.VoteMsg:
		for _, v := range m.Votes {
			acts = e.onVote(v, acts)
		}
	default:
		e.met.rejected++
	}
	return e.drainFault(acts)
}

// HandleTimer implements protocol.Engine: epoch boundaries.
func (e *Engine) HandleTimer(id protocol.TimerID, now time.Time) []protocol.Action {
	if e.stopped || id.Kind != protocol.TimerView {
		return nil
	}
	if id.Round <= e.epoch {
		return nil
	}
	return e.drainFault(e.enterEpoch(id.Round, now, nil))
}

// Metrics implements protocol.Engine.
func (e *Engine) Metrics() map[string]int64 {
	return map[string]int64{
		"proposals":     e.met.proposals,
		"votes_sent":    e.met.votesSent,
		"notarized":     e.met.notarized,
		"blocks_commit": e.met.blocksCommit,
		"bytes_commit":  e.met.bytesCommit,
		"rejected":      e.met.rejected,
		"rounds":        int64(e.epoch),
	}
}

// ---------------------------------------------------------------------------

func (e *Engine) enterEpoch(ep types.Round, now time.Time, acts []protocol.Action) []protocol.Action {
	e.epoch = ep
	// Arm the next boundary.
	acts = append(acts, protocol.SetTimer{
		ID: protocol.TimerID{Round: ep + 1, Kind: protocol.TimerView},
		At: e.start.Add(time.Duration(ep) * e.cfg.EpochDuration),
	})
	e.prune()
	if e.cfg.Set.Leader(ep) != e.cfg.Self || e.proposedIn[ep] {
		return acts
	}
	// Propose extending a longest notarized chain.
	parent := e.longestTip()
	payload := e.cfg.Payloads.NextPayload(ep)
	b := types.NewBlock(ep, e.cfg.Self, 0, parent, payload)
	if err := e.cfg.Signer.SignBlock(b); err != nil {
		e.stop(fmt.Errorf("streamlet: signing own block: %w", err))
		return acts
	}
	e.proposedIn[ep] = true
	e.met.proposals++
	prop := &types.Proposal{Block: b}
	acts = append(acts, protocol.Broadcast{Msg: prop})
	return e.onProposal(prop, acts)
}

// longestTip picks the tip of a longest notarized chain: maximal length,
// ties to the highest epoch then smallest ID.
func (e *Engine) longestTip() types.BlockID {
	best := e.tree.Genesis().ID()
	bestLen, bestEpoch := 0, types.Round(0)
	for id, l := range e.chainLen {
		if l < 0 {
			continue
		}
		b, ok := e.tree.Block(id)
		if !ok {
			continue
		}
		switch {
		case l > bestLen,
			l == bestLen && b.Round > bestEpoch,
			l == bestLen && b.Round == bestEpoch && lessID(id, best):
			best, bestLen, bestEpoch = id, l, b.Round
		}
	}
	return best
}

func lessID(a, b types.BlockID) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func (e *Engine) onProposal(m *types.Proposal, acts []protocol.Action) []protocol.Action {
	b := m.Block
	if b == nil || b.Round < 1 || !e.cfg.Set.Contains(b.Proposer) {
		e.met.rejected++
		return acts
	}
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
	e.tree.Add(b)
	acts = e.tryNotarize(b.Round, b.ID(), acts)

	// Vote only during the block's epoch, once per epoch, and only if the
	// block extends a longest notarized chain in this replica's view.
	if b.Round != e.epoch || e.votedIn[b.Round] {
		return acts
	}
	if pl, ok := e.chainLen[b.Parent]; !ok || pl < 0 || pl < e.maxLen {
		return acts
	}
	e.votedIn[b.Round] = true
	v := e.cfg.Signer.SignVote(types.VoteNotarize, b.Round, b.ID())
	e.met.votesSent++
	acts = append(acts, protocol.Broadcast{Msg: &types.VoteMsg{Votes: []types.Vote{v}}})
	return e.onVote(v, acts)
}

func (e *Engine) onVote(v types.Vote, acts []protocol.Action) []protocol.Action {
	if v.Kind != types.VoteNotarize || v.Round < 1 || !e.cfg.Set.Contains(v.Voter) {
		e.met.rejected++
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
	return e.tryNotarize(v.Round, v.Block, acts)
}

// tryNotarize notarizes a block once it holds n−f votes, updates chain
// lengths and applies the three-consecutive-epochs finality rule.
func (e *Engine) tryNotarize(epoch types.Round, id types.BlockID, acts []protocol.Action) []protocol.Action {
	if e.tree.IsNotarized(id) {
		return e.refreshLengths(acts)
	}
	if len(e.votes[epoch][id]) < e.cfg.quorum() {
		return acts
	}
	if _, ok := e.tree.Block(id); !ok {
		return acts
	}
	e.tree.MarkNotarized(id)
	e.met.notarized++
	if _, ok := e.chainLen[id]; !ok {
		e.chainLen[id] = -1
	}
	return e.refreshLengths(acts)
}

// refreshLengths resolves notarized-chain lengths that were blocked on
// missing ancestors, then checks finality for every resolved block.
func (e *Engine) refreshLengths(acts []protocol.Action) []protocol.Action {
	for changed := true; changed; {
		changed = false
		for id, l := range e.chainLen {
			if l >= 0 {
				continue
			}
			b, ok := e.tree.Block(id)
			if !ok {
				continue
			}
			pl, ok := e.chainLen[b.Parent]
			if !ok || pl < 0 {
				continue
			}
			e.chainLen[id] = pl + 1
			if pl+1 > e.maxLen {
				e.maxLen = pl + 1
			}
			changed = true
			acts = e.checkFinal(b, acts)
		}
	}
	return acts
}

// checkFinal applies Streamlet finality: when notarized b” (epoch x+2)
// directly extends notarized b' (x+1) which extends notarized b (x), the
// chain up to b' is final. b3 here is any newly notarized block; it is
// checked as the head and as the middle of such a triple.
func (e *Engine) checkFinal(b3 *types.Block, acts []protocol.Action) []protocol.Action {
	acts = e.checkTripleHead(b3, acts)
	// b3 may also complete a triple as the middle block if its child is
	// already notarized; scan its epoch successor among notarized blocks.
	for _, id := range e.tree.AtRound(b3.Round + 1) {
		child, ok := e.tree.Block(id)
		if !ok || !e.tree.IsNotarized(id) || child.Parent != b3.ID() {
			continue
		}
		acts = e.checkTripleHead(child, acts)
	}
	return acts
}

func (e *Engine) checkTripleHead(b3 *types.Block, acts []protocol.Action) []protocol.Action {
	if !e.tree.IsNotarized(b3.ID()) {
		return acts
	}
	b2, ok := e.tree.Block(b3.Parent)
	if !ok || !e.tree.IsNotarized(b2.ID()) || b2.Round != b3.Round-1 {
		return acts
	}
	b1, ok := e.tree.Block(b2.Parent)
	if !ok || !e.tree.IsNotarized(b1.ID()) || b1.Round != b2.Round-1 {
		return acts
	}
	if e.tree.IsFinalized(b2.ID()) {
		return acts
	}
	chain, err := e.tree.Finalize(b2.ID())
	switch {
	case err == nil:
		if len(chain) > 0 {
			for _, blk := range chain {
				e.met.blocksCommit++
				e.met.bytesCommit += int64(blk.Payload.Size())
			}
			acts = append(acts, protocol.Commit{Blocks: chain, Explicit: protocol.FinalizeSlow})
		}
	case errors.Is(err, blocktree.ErrMissingAncestor):
		// Retried on the next notarization.
	default:
		e.stop(err)
	}
	return acts
}

func (e *Engine) prune() {
	fin := e.tree.FinalizedRound()
	if fin <= pruneKeep {
		return
	}
	floor := fin - pruneKeep
	for ep := range e.votes {
		if ep < floor {
			delete(e.votes, ep)
		}
	}
	for ep := range e.votedIn {
		if ep < floor {
			delete(e.votedIn, ep)
			delete(e.proposedIn, ep)
		}
	}
	for id := range e.chainLen {
		if b, ok := e.tree.Block(id); !ok || b.Round < floor {
			delete(e.chainLen, id)
		}
	}
	e.tree.Prune(floor)
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
