package core

import (
	"fmt"
	"slices"
	"sort"

	"banyan/internal/membership"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// WAL checkpointing (the protocol.Snapshotter contract). A snapshot
// captures the two things a restarted replica cannot re-derive from its
// peers: the finalized chain window the engine still retains under its
// pruning policy, and the replica's own voting record for every live
// round. The WAL recorder journals snapshots as checkpoint records and
// truncates the log behind them, so restart replay and disk usage are
// O(PruneKeep) instead of O(uptime).

var _ protocol.Snapshotter = (*Engine)(nil)

// Snapshot implements protocol.Snapshotter: it exports the finalized
// window (finalizedWindow) and, per live round, this replica's own
// proposal and votes, reconstructed as wire messages that ReplayOwn can
// ingest. The newest finalization certificate rides along so a restored
// replica can immediately follow and serve catch-up.
func (e *Engine) Snapshot() *protocol.Snapshot {
	s := &protocol.Snapshot{
		Round:          e.round,
		FinalizedRound: e.tree.FinalizedRound(),
		Chain:          e.finalizedWindow(),
		Sets:           e.history.Descs(),
	}
	if len(s.Chain) > 0 {
		s.FinalizedRound = s.Chain[len(s.Chain)-1].Round
	}

	// Own voting record, one message bundle per live round, in round
	// order (determinism keeps checkpoint bytes reproducible for tests).
	rounds := make([]types.Round, 0, len(e.rounds))
	for r := range e.rounds {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	for _, r := range rounds {
		rs := e.rounds[r]
		if rs.proposed {
			for _, bs := range rs.byID {
				if bs.block != nil && bs.block.Proposer == e.cfg.Self {
					s.Own = append(s.Own, &types.Proposal{Block: bs.block})
					break
				}
			}
		}
		if votes := rs.ownVotes(r, e.cfg.Self); len(votes) > 0 {
			s.Own = append(s.Own, &types.VoteMsg{Votes: votes})
		}
	}
	if e.latestFinal != nil {
		s.Own = append(s.Own, &types.CertMsg{Cert: e.latestFinal})
	}
	return s
}

// finalizedWindow returns the last PruneKeep finalized blocks, oldest
// first: the window a checkpoint records and a snapshot request is
// served. It is walked tip-to-floor along parent links, so it is
// contiguous by construction; it is empty before anything finalizes.
func (e *Engine) finalizedWindow() []*types.Block {
	fin := e.tree.FinalizedRound()
	id, ok := e.tree.FinalizedAt(fin)
	if fin < 1 || !ok {
		return nil
	}
	floor := types.Round(1)
	if fin > e.cfg.PruneKeep {
		floor = fin - e.cfg.PruneKeep + 1
	}
	var chain []*types.Block
	b, ok := e.tree.Block(id)
	for ok && b.Round >= floor && !b.IsGenesis() {
		chain = append(chain, b)
		b, ok = e.tree.Block(b.Parent)
	}
	slices.Reverse(chain)
	return chain
}

// RestoreSnapshot implements protocol.Snapshotter: it re-anchors the
// block tree at the snapshot's finalized window and re-enters the round
// after it. Own messages are NOT absorbed here — the WAL recorder feeds
// them through ReplayOwn exactly like journaled own records, so every
// signature is re-verified and the restore path stays identical to
// ordinary replay. Must be called in replay mode on a fresh engine.
func (e *Engine) RestoreSnapshot(s *protocol.Snapshot) error {
	if !e.replaying {
		return fmt.Errorf("core: RestoreSnapshot outside replay mode")
	}
	// The anchor is the newest finalization certificate, which Snapshot
	// writes into Own.
	var anchor *types.Certificate
	for _, m := range s.Own {
		if cm, ok := m.(*types.CertMsg); ok && cm.Cert != nil {
			anchor = cm.Cert
		}
	}
	if len(s.Chain) > 0 {
		// The checkpoint is local disk, not a trusted channel: its window
		// passes the gate a peer's snapshot passes. Its anchor may lie above
		// the tip: Snapshot records the newest certificate, and a replica
		// that crashed mid-catch-up had finalized less. The restored replica
		// re-enters catch-up at once, and a window conflicting with the
		// cluster's genuine chain surfaces there as a safety fault instead
		// of being served silently. A checkpoint without a set history
		// holds the genesis epoch.
		sets := s.Sets
		if len(sets) == 0 {
			sets = e.history.Descs()
		}
		if _, err := e.adoptWindow(sets, s.Chain, anchor, false); err != nil {
			return err
		}
	}
	if e.cfg.Dissem != nil {
		// The window is finalized history: its refs enter the store's
		// finalized-digest index, as a live finalization's would.
		for _, b := range s.Chain {
			e.cfg.Dissem.MarkFinalized(b.Payload, b.Round)
		}
	}
	fin := e.tree.FinalizedRound()
	if fin != s.FinalizedRound {
		return fmt.Errorf("core: snapshot claims finalized round %d, window restores %d",
			s.FinalizedRound, fin)
	}
	e.round = fin + 1
	e.lastPrune = fin
	if fin >= 1 {
		// The restored tip is the block the replica leaves round fin
		// through; without this, a post-restore proposal in round fin+1
		// would extend a zero parent.
		head := s.Chain[len(s.Chain)-1]
		rs := e.getRound(fin)
		rs.started = true
		rs.advanced = true
		rs.advanceBlock = head.ID()
		rs.finalized = true
		rs.finalizedBlock = head.ID()
		// The certificate verified above anchors catch-up serving
		// (latestFinal). It is adopted here because the copy in s.Own is,
		// at the window tip, a certificate for a settled round by the time
		// ReplayOwn sees it, and dropped like any other.
		e.noteFinalCert(anchor)
	}
	return nil
}

// adoptWindow is the one gate a finalized window enters the replica by,
// from a peer's snapshot response or from its own WAL checkpoint. Nothing
// in the window is trusted until it passes, and nothing changes unless it
// passes:
//
//   - the set history is a legal chain of single add/remove steps that
//     extends the local one (the replica's weak-subjectivity trust anchor:
//     a window rewriting a known epoch is refused whatever its
//     certificate);
//   - every block carries its round's epoch, a member proposer of that
//     epoch's set, that proposer's rank, its proposer's signature, and a
//     link to the block before it;
//   - the certificate is a finalization at the quorum of its round's set,
//     naming the tip — or, when tipExact is false, any later round.
//
// The set history is then restored and the window grafted onto the tree
// as finalized history (Tree.AdoptFinalized); the newly finalized blocks
// are returned. An error from AdoptFinalized is ErrSafetyViolation: a
// certified window contradicting the finalized prefix.
func (e *Engine) adoptWindow(sets []*types.ValidatorSetDesc, chain []*types.Block,
	c *types.Certificate, tipExact bool) ([]*types.Block, error) {
	claimed, err := membership.VerifyChain(sets)
	if err != nil {
		return nil, err
	}
	if err := e.history.VerifyExtends(sets); err != nil {
		return nil, err
	}
	if len(chain) == 0 {
		return nil, fmt.Errorf("core: empty window")
	}
	setAt := func(r types.Round) *membership.ValidatorSet {
		for i := len(claimed) - 1; i > 0; i-- {
			if claimed[i].Activation() <= r {
				return claimed[i]
			}
		}
		return claimed[0]
	}
	for i, b := range chain {
		if b == nil || b.Round < 1 {
			return nil, fmt.Errorf("core: window block %d missing or before round 1", i)
		}
		set := setAt(b.Round)
		if b.Epoch != set.Epoch() || !set.Contains(b.Proposer) || b.Rank != set.RankOf(b.Round, b.Proposer) {
			return nil, fmt.Errorf("core: window block r=%d outside its epoch's leader schedule", b.Round)
		}
		if i > 0 && (b.Parent != chain[i-1].ID() || b.Round <= chain[i-1].Round) {
			return nil, fmt.Errorf("core: window breaks at round %d", b.Round)
		}
		if err := e.cfg.Verifier.VerifyBlock(b); err != nil {
			return nil, fmt.Errorf("core: window block r=%d: %w", b.Round, err)
		}
	}
	tip := chain[len(chain)-1]
	if c == nil || c.Round < tip.Round || c.Round == tip.Round && c.Block != tip.ID() ||
		tipExact && c.Round != tip.Round {
		return nil, fmt.Errorf("core: window has no finalization certificate covering round %d", tip.Round)
	}
	set := setAt(c.Round)
	var quorum int
	switch c.Kind {
	case types.CertFinalization:
		quorum = set.Params().FinalizationQuorum()
	case types.CertFastFinalization:
		quorum = set.Params().FastQuorum()
	default:
		return nil, fmt.Errorf("core: window certificate of kind %v finalizes nothing", c.Kind)
	}
	if err := e.cfg.Verifier.VerifyCertIn(c, quorum, set); err != nil {
		return nil, fmt.Errorf("core: window finalization certificate: %w", err)
	}
	if err := e.history.Restore(sets); err != nil {
		return nil, err
	}
	e.scrubNonMembers(e.history.Current())
	return e.tree.AdoptFinalized(chain)
}

// OwnRecord summarizes this replica's own actions in one round — the
// state whose loss across a crash-restart would permit equivocation.
// Property tests compare it between a full replay and a
// checkpoint-plus-tail replay.
type OwnRecord struct {
	Proposed     bool
	FastVoteSent bool
	FinalVoted   bool
	NotarVotes   []types.BlockID // N: every block notarization-voted for, by fast vote or bare
	FastVotes    []types.BlockID
	FinalVotes   []types.BlockID
}

// OwnVotingRecord exports the per-round voting record for every round
// above the engine's pruning floor. Block ID lists are sorted.
func (e *Engine) OwnVotingRecord() map[types.Round]OwnRecord {
	out := make(map[types.Round]OwnRecord)
	floor := types.Round(0)
	if fin := e.tree.FinalizedRound(); fin > e.cfg.PruneKeep {
		floor = fin - e.cfg.PruneKeep
	}
	sorted := func(ids []types.BlockID) []types.BlockID {
		slices.SortFunc(ids, types.BlockID.Compare)
		return ids
	}
	collect := func(rs *roundState, kind types.VoteKind) []types.BlockID {
		var ids []types.BlockID
		for block, bs := range rs.byID {
			if bs.set(kind).has(e.cfg.Self) {
				ids = append(ids, block)
			}
		}
		return sorted(ids)
	}
	for r, rs := range e.rounds {
		if r <= floor {
			continue
		}
		var voted []types.BlockID
		for block, bs := range rs.byID {
			if bs.notarVoted {
				voted = append(voted, block)
			}
		}
		rec := OwnRecord{
			Proposed:     rs.proposed,
			FastVoteSent: rs.fastVoteSent,
			FinalVoted:   rs.finalVoted,
			NotarVotes:   sorted(voted),
			FastVotes:    collect(rs, types.VoteFast),
			FinalVotes:   collect(rs, types.VoteFinalize),
		}
		if !rec.Proposed && !rec.FastVoteSent && !rec.FinalVoted &&
			len(rec.NotarVotes)+len(rec.FastVotes)+len(rec.FinalVotes) == 0 {
			continue
		}
		out[r] = rec
	}
	return out
}
