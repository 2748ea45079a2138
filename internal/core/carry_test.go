package core

import (
	"testing"
	"time"

	"banyan/internal/membership"
	"banyan/internal/types"
)

// Orphan carry: a round admits several proposals and finalizes one, and
// the payload source hands a payload out for good — so the payload of an
// own block that can no longer finalize is queued and proposed again
// before anything new is drawn.

// proposeAtRank advances the rig's clock to its engine's proposal delay in
// the current round and returns the block it proposes.
func proposeAtRank(t *testing.T, r *rig) *types.Block {
	t.Helper()
	round := r.eng.Round()
	r.tick(r.eng.propDelay(r.set.RankOf(round, r.eng.ID())))
	own := ownProposalAt(r, round)
	if own == nil {
		t.Fatalf("round %d: engine did not propose at its rank delay", round)
	}
	return own
}

// finalizeCompeting teaches the engine — block first, then a
// fast-finalization certificate signed by everyone else — that the round
// leader's block a finalized, orphaning the engine's own proposal.
func finalizeCompeting(t *testing.T, r *rig, a *types.Block) {
	t.Helper()
	var voters []types.ReplicaID
	for peer := types.ReplicaID(0); int(peer) < r.params.N; peer++ {
		if peer != r.eng.ID() {
			voters = append(voters, peer)
		}
	}
	r.deliver(a.Proposer, r.proposalFor(a))
	r.deliver(a.Proposer, r.fastFinalCert(a, voters...))
	if fin, _ := r.eng.Tree().FinalizedAt(a.Round); fin != a.ID() {
		t.Fatalf("round %d: competing block did not finalize", a.Round)
	}
}

// loseRound has the engine propose in the current round and lose it to a.
func loseRound(t *testing.T, r *rig, a *types.Block) *types.Block {
	t.Helper()
	own := proposeAtRank(t, r)
	finalizeCompeting(t, r, a)
	return own
}

// ownProposalAt returns the engine's own proposal for a round, or nil.
func ownProposalAt(r *rig, round types.Round) *types.Block {
	for _, p := range broadcasts[*types.Proposal](r) {
		if !p.Relayed && p.Block != nil && p.Block.Proposer == r.eng.ID() && p.Block.Round == round {
			return p.Block
		}
	}
	return nil
}

// TestOrphanedOwnPayloadIsCarried: the rank-1 proposer's block loses round
// 1 to the leader's; leading round 2, it proposes the same payload again
// and the source is not asked for another.
func TestOrphanedOwnPayloadIsCarried(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(1, 1)
	if set.ReplicaAt(2, 0) != self {
		t.Fatal("setup: the round-1 rank-1 replica should lead round 2")
	}
	var calls []types.Round
	r := newRig(t, p411, self, countingPayloads(&calls))
	lost := loseRound(t, r, r.leaderBlock(1, types.Genesis().ID(), 'a'))

	next := ownProposalAt(r, 2)
	if next == nil {
		t.Fatal("no round-2 proposal")
	}
	if next.Payload.Digest() != lost.Payload.Digest() {
		t.Fatal("round-2 proposal does not carry the orphaned payload")
	}
	if len(calls) != 1 {
		t.Fatalf("payload draws = %v, want only round 1's (the carried payload replaces a draw)", calls)
	}
	if got := r.eng.Metrics()["payloads_carried"]; got != 1 {
		t.Fatalf("payloads_carried = %d, want 1", got)
	}
	if len(r.eng.carry) != 0 {
		t.Fatalf("carry queue holds %d payloads after the re-proposal, want 0", len(r.eng.carry))
	}
}

// TestWinningOwnPayloadIsNotCarried: an own block that finalizes leaves
// nothing behind, and the next proposal draws a fresh payload.
func TestWinningOwnPayloadIsNotCarried(t *testing.T) {
	leader := genesisSet(t, p411).ReplicaAt(1, 0)
	var calls []types.Round
	r := newRig(t, p411, leader, countingPayloads(&calls))
	buildFinalizedChain(t, r, 5) // the rig leads rounds 1 and 5
	if got := r.eng.Metrics()["payloads_carried"]; got != 0 {
		t.Fatalf("payloads_carried = %d, want 0", got)
	}
	if len(calls) != 2 {
		t.Fatalf("payload draws = %v, want one per round led", calls)
	}
}

// TestNothingCarriedDuringReplay: replay re-finalizes the round the own
// block lost, but what that orphaned was carried — or lost with the
// process — before the crash; queuing it again could commit it twice.
func TestNothingCarriedDuringReplay(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(1, 1)
	r := newRig(t, p411, self)
	a := r.leaderBlock(1, types.Genesis().ID(), 'a')
	loseRound(t, r, a)
	journalOwn := ownBroadcasts(r)

	var calls []types.Round
	eng2 := replayRig(t, r, countingPayloads(&calls))
	now := time.Unix(10, 0)
	eng2.BeginReplay()
	eng2.Start(now)
	for _, m := range journalOwn {
		if p, ok := m.(*types.Proposal); ok && p.Block != nil && p.Block.Round > 1 {
			continue // crash before the round-2 proposal
		}
		eng2.ReplayOwn(m, now)
	}
	eng2.HandleMessage(a.Proposer, r.proposalFor(a), now)
	eng2.HandleMessage(a.Proposer, r.fastFinalCert(a, a.Proposer, set.ReplicaAt(1, 2), set.ReplicaAt(1, 3)), now)
	if eng2.Tree().FinalizedRound() != 1 {
		t.Fatal("replay did not re-finalize round 1")
	}
	if len(eng2.carry) != 0 || eng2.Metrics()["payloads_carried"] != 0 {
		t.Fatalf("replay queued %d payloads", len(eng2.carry))
	}
	acts := eng2.EndReplay(now)
	if _, proposals := countSigning(acts); proposals != 1 {
		t.Fatalf("restarted round-2 leader made %d proposals, want 1", proposals)
	}
	if len(calls) != 1 || calls[0] != 2 {
		t.Fatalf("payload draws = %v, want a fresh one for round 2", calls)
	}
}

// TestOldestCarriedPayloadWaitsForLedRound: a fallback (rank > 0) proposal
// leaves the oldest carried payload for the round this replica leads and
// draws its own, so a payload cannot cycle through losing proposals.
func TestOldestCarriedPayloadWaitsForLedRound(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(1, 2) // rank 2, then rank 1, then leader
	var calls []types.Round
	r := newRig(t, p411, self, countingPayloads(&calls))
	a := r.leaderBlock(1, types.Genesis().ID(), 'a')
	first := loseRound(t, r, a)
	r.clearActs()
	second := loseRound(t, r, r.leaderBlock(2, a.ID(), 'b'))
	if second.Payload.Digest() == first.Payload.Digest() || len(calls) != 2 {
		t.Fatalf("rank-1 proposal of round 2 took the only carried payload (draws %v)", calls)
	}
	led := ownProposalAt(r, 3)
	if led == nil {
		t.Fatal("no round-3 proposal")
	}
	if led.Payload.Digest() != first.Payload.Digest() {
		t.Fatal("the led round does not propose the oldest carried payload")
	}
	if len(r.eng.carry) != 1 || r.eng.carry[0].Digest() != second.Payload.Digest() {
		t.Fatalf("carry queue = %d payloads, want round 2's orphan alone", len(r.eng.carry))
	}
	if len(calls) != 2 {
		t.Fatalf("payload draws = %v, want none for round 3", calls)
	}
}

// TestCarriedPayloadDropsItsChange: the orphaned block also proposed a
// validator-set change. Re-proposing changes is the Reconfigurator's
// business — here the change finalized in someone else's block meanwhile —
// so the payload is carried without it.
func TestCarriedPayloadDropsItsChange(t *testing.T) {
	params := types.Params{N: 5, F: 1, P: 1}
	set := genesisSet(t, params)
	self := set.ReplicaAt(1, 1) // leads round 2
	change := types.ConfigChange{Op: types.ConfigRemove, Replica: set.ReplicaAt(1, 4)}
	slot := &membership.Reconfigurator{}
	slot.Propose(change)
	var calls []types.Round
	r := newRig(t, params, self, countingPayloads(&calls), func(c *Config) { c.Reconfig = slot })
	lost := proposeAtRank(t, r)
	if lost.Payload.Change == nil {
		t.Fatal("setup: the proposal should carry the queued change")
	}
	slot.Observe(&change)
	finalizeCompeting(t, r, r.leaderBlock(1, types.Genesis().ID(), 'a'))

	next := ownProposalAt(r, 2)
	if next == nil {
		t.Fatal("no round-2 proposal")
	}
	if next.Payload.Change != nil {
		t.Fatal("the carried payload re-proposed a change its slot no longer holds")
	}
	if want := lost.Payload.WithoutChange(); next.Payload.Digest() != want.Digest() {
		t.Fatal("round-2 proposal does not carry the orphaned payload's content")
	}
	if len(calls) != 1 {
		t.Fatalf("payload draws = %v, want only round 1's", calls)
	}
}
