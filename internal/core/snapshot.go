package core

import (
	"fmt"
	"slices"
	"sort"

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
// window (walked tip-to-floor along parent links, so the result is
// contiguous by construction) and, per live round, this replica's own
// proposal and votes, reconstructed as wire messages that ReplayOwn can
// ingest. The newest finalization certificate rides along so a restored
// replica can immediately follow and serve catch-up.
func (e *Engine) Snapshot() *protocol.Snapshot {
	fin := e.tree.FinalizedRound()
	s := &protocol.Snapshot{Round: e.round, FinalizedRound: fin, Sets: e.history.Descs()}

	// Finalized window: the last PruneKeep finalized blocks.
	floor := types.Round(1)
	if fin > e.cfg.PruneKeep {
		floor = fin - e.cfg.PruneKeep + 1
	}
	if id, ok := e.tree.FinalizedAt(fin); ok && fin >= 1 {
		var chain []*types.Block
		b, ok := e.tree.Block(id)
		for ok && b.Round >= floor && !b.IsGenesis() {
			chain = append(chain, b)
			b, ok = e.tree.Block(b.Parent)
		}
		for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
			chain[i], chain[j] = chain[j], chain[i]
		}
		s.Chain = chain
		if len(chain) > 0 {
			s.FinalizedRound = chain[len(chain)-1].Round
		}
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
	// A pending optimistic proposal (signed and broadcast, not yet
	// confirmed or withdrawn) rides along so a checkpoint-plus-tail replay
	// restores the same in-flight state as a full replay. Its missing fast
	// vote is what marks it optimistic to ReplayOwn.
	if e.opt != nil {
		s.Own = append(s.Own, &types.Proposal{Block: e.opt.block})
	}
	if e.latestFinal != nil {
		s.Own = append(s.Own, &types.CertMsg{Cert: e.latestFinal})
	}
	return s
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
	// Restore the validator-set history first: every signature and quorum
	// check below — and the replay that follows — must run under the
	// epochs in effect when the checkpoint was taken. Restore re-verifies
	// the chain of sets structurally and anchors it at the configured
	// genesis set, so a corrupted checkpoint cannot smuggle in an epoch.
	if len(s.Sets) > 0 {
		if err := e.history.Restore(s.Sets); err != nil {
			return err
		}
	}
	// Re-verify the window's proposer signatures before adopting it: the
	// checkpoint is local disk, not a trusted channel.
	for _, b := range s.Chain {
		if b == nil {
			return fmt.Errorf("core: snapshot chain contains nil block")
		}
		if set := e.setFor(b.Round); b.Epoch != set.Epoch() || !set.Contains(b.Proposer) {
			return fmt.Errorf("core: snapshot block r=%d outside its epoch's set", b.Round)
		}
		if err := e.cfg.Verifier.VerifyBlock(b); err != nil {
			return fmt.Errorf("core: snapshot block r=%d: %w", b.Round, err)
		}
	}
	// The window must be *finalized*, not merely well-signed: a
	// proposer-signed chain of abandoned-fork blocks would otherwise
	// restore as finalized history. Require a quorum-verified
	// finalization certificate at or above the window tip; at the tip it
	// must name the tip block. (A certificate above the tip means the
	// replica crashed mid-catch-up; the restored replica re-enters
	// catch-up immediately, and a window conflicting with the cluster's
	// genuine chain surfaces as a safety fault there instead of being
	// served silently.)
	var anchor *types.Certificate
	if len(s.Chain) > 0 {
		var err error
		if anchor, err = e.verifySnapshotFinalization(s); err != nil {
			return err
		}
	}
	if err := e.tree.RestoreFinalized(s.Chain); err != nil {
		return err
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
	}
	e.round = fin + 1
	e.lastPrune = fin
	e.syncHigh = fin
	if anchor != nil {
		// The certificate verified above anchors catch-up serving
		// (latestFinal). It is adopted here because the copy in s.Own is,
		// at the window tip, a certificate for a settled round by the time
		// ReplayOwn sees it, and dropped like any other.
		e.noteFinalCert(anchor)
	}
	return nil
}

// finalizationQuorum is the quorum-certificate trust gate shared by WAL
// checkpoint restores (verifySnapshotFinalization) and peer snapshot
// ingestion (onSnapshotResponse): the quorum a finalization certificate
// of the given kind must clear, or false for kinds that finalize nothing.
func finalizationQuorum(p types.Params, kind types.CertKind) (int, bool) {
	switch kind {
	case types.CertFinalization:
		return p.FinalizationQuorum(), true
	case types.CertFastFinalization:
		return p.FastQuorum(), true
	default:
		return 0, false
	}
}

// verifySnapshotFinalization checks the snapshot carries a
// quorum-verified finalization certificate covering its chain window
// (see RestoreSnapshot). Snapshot always embeds the engine's newest
// finalization certificate in Own, so a genuine checkpoint passes. The
// verified certificate is returned.
func (e *Engine) verifySnapshotFinalization(s *protocol.Snapshot) (*types.Certificate, error) {
	tip := s.Chain[len(s.Chain)-1]
	for _, m := range s.Own {
		cm, ok := m.(*types.CertMsg)
		if !ok || cm.Cert == nil {
			continue
		}
		c := cm.Cert
		set := e.setFor(c.Round)
		quorum, ok := finalizationQuorum(set.Params(), c.Kind)
		if !ok {
			continue
		}
		if c.Round < tip.Round {
			continue
		}
		if c.Round == tip.Round && c.Block != tip.ID() {
			continue
		}
		if err := e.cfg.Verifier.VerifyCertIn(c, quorum, set); err != nil {
			return nil, fmt.Errorf("core: snapshot finalization certificate: %w", err)
		}
		return c, nil
	}
	return nil, fmt.Errorf("core: snapshot has no finalization certificate covering round %d", tip.Round)
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
