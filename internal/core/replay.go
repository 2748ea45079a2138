package core

import (
	"time"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// WAL replay (the wal.Engine contract). A restarted replica restores
// what only it knows — its own pre-crash proposals and votes, from its
// checkpoint and its journal — through ReplayOwn, which sets the "I
// already did this" flags (proposed, notarVoted, fastVoteSent,
// finalVoted) that the safety argument depends on: without them, a
// restarted replica could re-decide a round with post-crash timing and
// vote for a different block — equivocation. Replay mode keeps the
// engine from creating any new signature meanwhile. The chain and the
// other replicas' votes come back from the cluster through catch-up;
// a flag restored for a round catch-up has not reached yet waits there.

// BeginReplay puts the engine in replay mode. Call before Start.
func (e *Engine) BeginReplay() { e.replaying = true }

// ReplayOwn ingests a message this replica itself sent before the crash.
// Proposals and votes restore the own-action flags alongside the ledger
// state; certificates and advances are absorbed like peer messages. All
// signatures are re-verified, so a corrupted-but-framed WAL entry cannot
// smuggle a forged vote into a certificate this replica later builds.
func (e *Engine) ReplayOwn(msg types.Message, now time.Time) []protocol.Action {
	if e.stopped {
		return nil
	}
	switch m := msg.(type) {
	case *types.Proposal:
		e.replayOwnProposal(m)
	case *types.VoteMsg:
		for _, v := range m.Votes {
			e.replayOwnVote(v)
		}
	case *types.CertMsg:
		e.onCert(m.Cert)
	case *types.Advance:
		e.onCert(m.Notarization)
		e.onUnlock(m.Unlock)
	}
	return e.progress(now, nil)
}

func (e *Engine) replayOwnProposal(m *types.Proposal) {
	b := m.Block
	if b == nil || b.Proposer != e.cfg.Self || m.Relayed {
		// A (header) relay of someone else's block: ingest like a peer
		// message — its credentials are all it can still teach.
		e.onProposal(e.cfg.Self, m)
		return
	}
	if b.Round < 1 {
		return
	}
	if b.Round+e.cfg.PruneKeep <= e.tree.FinalizedRound() {
		return
	}
	if err := e.cfg.Verifier.VerifyBlock(b); err != nil {
		e.met.rejected++
		return
	}
	e.adoptOwn(e.getRound(b.Round), b)
	if m.FastVote != nil {
		e.replayOwnVote(*m.FastVote)
	}
	if m.ParentNotarization != nil {
		e.onCert(m.ParentNotarization)
	}
	e.onUnlock(m.ParentUnlock)
}

func (e *Engine) replayOwnVote(v types.Vote) {
	if v.Voter != e.cfg.Self || v.Round < 1 || !v.Kind.Valid() {
		return
	}
	if v.Round+e.cfg.PruneKeep <= e.tree.FinalizedRound() {
		return
	}
	if err := e.cfg.Verifier.VerifyVote(v); err != nil {
		e.met.rejected++
		return
	}
	rs := e.getRound(v.Round)
	rs.recordVote(v.Kind, v.Block, v.Voter, v.Signature, e.setFor(v.Round))
	switch v.Kind {
	case types.VoteNotarize:
		rs.recFor(v.Block).notarVoted = true
	case types.VoteFast:
		// The fast vote is the notarization vote for its block as well; a
		// journal from when the two were signed separately holds both and
		// restores the same record.
		rs.fastVoteSent = true
		rs.recFor(v.Block).notarVoted = true
	case types.VoteFinalize:
		rs.finalVoted = true
	}
}

// EndReplay leaves replay mode and resumes live operation: the current
// round's delays restart at now (slower than pre-crash timing, never
// unsafe), the propose/resend timers are re-armed, and one progress pass
// picks up anything the restored state already justifies.
func (e *Engine) EndReplay(now time.Time) []protocol.Action {
	e.replaying = false
	rs := e.getRound(e.round)
	rs.started = true
	rs.t0 = now
	// Notarization-delay timers were requested against pre-crash t0;
	// forget them so scheduleNotarTimers re-arms against the new one.
	clear(rs.notarTimers)
	var acts []protocol.Action
	if rank := e.setFor(e.round).RankOf(e.round, e.cfg.Self); rank > 0 && rank != types.NoRank && !rs.proposed {
		acts = append(acts, protocol.SetTimer{
			ID: protocol.TimerID{Round: e.round, Kind: protocol.TimerPropose, Rank: rank},
			At: now.Add(e.propDelay(rank)),
		})
	}
	acts = append(acts, protocol.SetTimer{
		ID: protocol.TimerID{Round: e.round, Kind: protocol.TimerResend},
		At: now.Add(e.resendInterval()),
	})
	return e.progress(now, acts)
}
