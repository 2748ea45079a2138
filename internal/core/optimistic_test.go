package core

import (
	"errors"
	"testing"
	"time"

	"banyan/internal/blocktree"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Optimistic proposal pipelining (Moonshot mode) unit battery: the
// propose → confirm / withdraw lifecycle, the rank-0 validity seam that
// keeps withdrawn blocks inert, the stale-parent extension rule, the
// conflicting-finalization fault path, and WAL replay of every
// lifecycle state.

// withOptimistic enables the knob on a rig config.
func withOptimistic(c *Config) { c.OptimisticProposals = true }

// countingPayloads records every NextPayload call so tests can assert
// the payload source is consulted exactly once per proposed round (the
// withdraw path must reuse the optimistic payload, not drain a second
// one).
func countingPayloads(calls *[]types.Round) func(*Config) {
	return func(c *Config) {
		c.Payloads = protocol.PayloadFunc(func(r types.Round) types.Payload {
			*calls = append(*calls, r)
			return types.BytesPayload([]byte{byte(r), byte(len(*calls))})
		})
	}
}

// ownRound2Proposals filters the rig's own (non-relayed) round-2
// proposal broadcasts — relays of peers' round-1 proposals don't count.
func ownRound2Proposals(r *rig) []*types.Proposal {
	var out []*types.Proposal
	for _, p := range broadcasts[*types.Proposal](r) {
		if !p.Relayed && p.Block != nil && p.Block.Round == 2 {
			out = append(out, p)
		}
	}
	return out
}

// bareProposals filters own credential-less broadcasts — the optimistic
// wire shape: rank 0, no fast vote, no parent credentials.
func bareProposals(r *rig) []*types.Proposal {
	var out []*types.Proposal
	for _, p := range broadcasts[*types.Proposal](r) {
		if !p.Relayed && p.FastVote == nil && p.ParentNotarization == nil && p.Block.Rank == 0 {
			out = append(out, p)
		}
	}
	return out
}

// fastFinalCert builds a quorum fast-finalization certificate.
func (r *rig) fastFinalCert(b *types.Block, voters ...types.ReplicaID) *types.CertMsg {
	r.t.Helper()
	votes := make([]types.Vote, len(voters))
	for i, v := range voters {
		votes[i] = r.fastVote(v, b)
	}
	cert, err := types.NewCertificate(types.CertFastFinalization, b.Round, b.ID(), votes)
	if err != nil {
		r.t.Fatal(err)
	}
	return &types.CertMsg{Cert: cert}
}

// TestOptimisticConfigRequiresFastPath: the knob leans on the rank-0
// fast-vote validity rule, so it must be rejected without the fast path.
func TestOptimisticConfigRequiresFastPath(t *testing.T) {
	_, err := New(Config{
		Params: p411, Self: 0,
		OptimisticProposals: true,
		DisableFastPath:     true,
	})
	if err == nil {
		t.Fatal("OptimisticProposals with DisableFastPath must be rejected")
	}
}

// TestOptimisticProposeAndConfirm drives the happy path at the round-2
// leader: receiving round 1's rank-0 block triggers an immediate bare
// broadcast of the round-2 block; when round 1 certifies with that
// parent, the already-broadcast block is confirmed by a tiny fast-vote
// message — no second body broadcast, no second payload draw.
func TestOptimisticProposeAndConfirm(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(2, 0) // leader of round 2
	var calls []types.Round
	r := newRig(t, p411, self, withOptimistic, countingPayloads(&calls))

	a := r.leaderBlock(1, types.Genesis().ID(), 'a')
	r.deliver(a.Proposer, r.proposalFor(a))

	bare := bareProposals(r)
	if len(bare) != 1 {
		t.Fatalf("optimistic broadcasts = %d, want 1", len(bare))
	}
	opt := bare[0].Block
	if opt.Round != 2 || opt.Rank != 0 || opt.Parent != a.ID() {
		t.Fatalf("optimistic block %+v, want round 2 rank 0 on %s", opt, a.ID())
	}
	if m := r.eng.Metrics(); m["opt_proposed"] != 1 {
		t.Fatalf("opt_proposed = %d, want 1", m["opt_proposed"])
	}

	// Certify round 1 on the expected parent: two peer fast votes plus the
	// proposer's (attached) and this replica's own reach n-p = 3.
	r.clearActs()
	peer1, peer2 := set.ReplicaAt(1, 2), set.ReplicaAt(1, 3)
	r.deliver(peer1, &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer1, a), r.notarVote(peer1, a)}})
	r.deliver(peer2, &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer2, a), r.notarVote(peer2, a)}})

	if r.eng.Round() != 2 {
		t.Fatalf("round = %d, want 2", r.eng.Round())
	}
	// Confirmation: a fast vote for the SAME block, and no re-broadcast of
	// the body.
	var confirms int
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		for _, v := range vm.Votes {
			if v.Kind == types.VoteFast && v.Round == 2 {
				if v.Block != opt.ID() {
					t.Fatalf("confirmation fast vote for %s, want %s", v.Block, opt.ID())
				}
				confirms++
			}
		}
	}
	if confirms != 1 {
		t.Fatalf("confirmation fast votes = %d, want 1", confirms)
	}
	if props := broadcasts[*types.Proposal](r); len(props) != 0 {
		t.Fatalf("confirmed round re-broadcast %d proposals, want 0 (body already sent)", len(props))
	}
	if _, ok := r.eng.Tree().Block(opt.ID()); !ok {
		t.Fatal("confirmed block missing from the tree")
	}
	m := r.eng.Metrics()
	if m["opt_confirmed"] != 1 || m["opt_withdrawn"] != 0 {
		t.Fatalf("metrics confirmed=%d withdrawn=%d, want 1/0", m["opt_confirmed"], m["opt_withdrawn"])
	}
	if len(calls) != 1 || calls[0] != 2 {
		t.Fatalf("payload draws = %v, want exactly [2]", calls)
	}
}

// TestOptimisticWithdrawOnParentMismatch: the guessed parent loses its
// round (an equivocating leader's other block certifies instead). The
// pipelined block must be withdrawn — never adopted, never fast-voted —
// and the fallback proposal must extend the certified parent while
// reusing the optimistic payload (a second draw would lose queued
// transactions in a real mempool).
func TestOptimisticWithdrawOnParentMismatch(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(2, 0)
	var calls []types.Round
	r := newRig(t, p411, self, withOptimistic, countingPayloads(&calls))

	a := r.leaderBlock(1, types.Genesis().ID(), 'a')
	r.deliver(a.Proposer, r.proposalFor(a))
	bare := bareProposals(r)
	if len(bare) != 1 {
		t.Fatalf("optimistic broadcasts = %d, want 1", len(bare))
	}
	opt := bare[0].Block

	// The round-1 leader equivocated: its other block a2 certifies (fast
	// quorum = proposer + both other peers, without this replica).
	a2 := r.leaderBlock(1, types.Genesis().ID(), 'z')
	r.clearActs()
	r.deliver(a2.Proposer, r.proposalFor(a2))
	peer1, peer2 := set.ReplicaAt(1, 2), set.ReplicaAt(1, 3)
	r.deliver(peer1, &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer1, a2), r.notarVote(peer1, a2)}})
	r.deliver(peer2, &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer2, a2), r.notarVote(peer2, a2)}})

	if r.eng.Round() != 2 {
		t.Fatalf("round = %d, want 2", r.eng.Round())
	}
	props := ownRound2Proposals(r)
	if len(props) != 1 {
		t.Fatalf("fallback proposals = %d, want 1", len(props))
	}
	fb := props[0]
	if fb.FastVote == nil || fb.Block.Parent != a2.ID() || fb.Block.Round != 2 {
		t.Fatalf("fallback %+v, want credentialed round-2 proposal on %s", fb, a2.ID())
	}
	if fb.Block.ID() == opt.ID() {
		t.Fatal("fallback reused the withdrawn block ID")
	}
	if fb.Block.Payload.Digest() != opt.Payload.Digest() {
		t.Fatal("fallback did not reuse the optimistic payload")
	}
	if len(calls) != 1 {
		t.Fatalf("payload draws = %v, want exactly one (withdrawal must not re-draw)", calls)
	}
	// The withdrawn block is inert: never adopted locally, never fast-voted.
	if _, ok := r.eng.Tree().Block(opt.ID()); ok {
		t.Fatal("withdrawn block was added to the tree")
	}
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		for _, v := range vm.Votes {
			if v.Block == opt.ID() {
				t.Fatalf("voted %v for the withdrawn block", v.Kind)
			}
		}
	}
	m := r.eng.Metrics()
	if m["opt_withdrawn"] != 1 || m["opt_confirmed"] != 0 {
		t.Fatalf("metrics withdrawn=%d confirmed=%d, want 1/0", m["opt_withdrawn"], m["opt_confirmed"])
	}
	// The reuse went through the carry queue, like any orphaned payload.
	if m["payloads_carried"] != 1 || len(r.eng.carry) != 0 {
		t.Fatalf("payloads_carried=%d with %d still queued, want 1 and 0", m["payloads_carried"], len(r.eng.carry))
	}
}

// TestOptimisticReceiverParksBareProposal: a replica receiving the bare
// optimistic broadcast must treat it as unvoteable (no proposer fast
// vote) until the confirmation arrives — the inertness that makes
// withdrawal safe.
func TestOptimisticReceiverParksBareProposal(t *testing.T) {
	set := genesisSet(t, p411)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, p411, observer, withOptimistic)

	a := r.leaderBlock(1, types.Genesis().ID(), 'a')
	r.deliver(a.Proposer, r.proposalFor(a))
	r.clearActs()

	// Round 2's pipelined block arrives bare while round 1 is still open.
	leader2 := set.ReplicaAt(2, 0)
	b := types.NewBlock(2, leader2, 0, a.ID(), types.BytesPayload([]byte{'b'}))
	if err := r.signers[leader2].SignBlock(b); err != nil {
		t.Fatal(err)
	}
	r.deliver(leader2, &types.Proposal{Block: b})
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		for _, v := range vm.Votes {
			if v.Block == b.ID() {
				t.Fatalf("voted %v for an unconfirmed optimistic block", v.Kind)
			}
		}
	}
	// The block may sit in the ancestry tree, but it must not be VALID —
	// validity is what gates every vote kind.
	if rs := r.eng.rounds[2]; rs != nil && rs.peek(b.ID()).valid {
		t.Fatal("unconfirmed optimistic block marked valid")
	}

	// Certify round 1, then deliver the confirmation: the parked block
	// becomes valid and this replica fast-votes it.
	peer1, peer2 := set.ReplicaAt(1, 1), set.ReplicaAt(1, 2)
	r.deliver(peer1, &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer1, a), r.notarVote(peer1, a)}})
	r.deliver(peer2, &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer2, a), r.notarVote(peer2, a)}})
	if r.eng.Round() != 2 {
		t.Fatalf("round = %d, want 2", r.eng.Round())
	}
	r.clearActs()
	r.deliver(leader2, &types.VoteMsg{Votes: []types.Vote{r.fastVote(leader2, b)}})
	var fastVoted bool
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		for _, v := range vm.Votes {
			if v.Kind == types.VoteFast && v.Block == b.ID() {
				fastVoted = true
			}
		}
	}
	if !fastVoted {
		t.Fatal("confirmed optimistic block not fast-voted by the receiver")
	}
}

// TestStaleFinalizedParentRejected: a rank-0 block extending a finalized
// block from an older round (a superseded fork point) must not validate
// — voting for it could notarize a chain that contradicts the finalized
// prefix and halt the cluster (see parentOK).
func TestStaleFinalizedParentRejected(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(4, 0)) // idle observer for rounds 1-3

	a1 := r.leaderBlock(1, types.Genesis().ID(), 'a')
	r.deliver(a1.Proposer, r.proposalFor(a1))
	r.deliver(a1.Proposer, r.fastFinalCert(a1, 1, 2, 3))
	if r.eng.Round() != 2 {
		t.Fatalf("round = %d after finalizing round 1, want 2", r.eng.Round())
	}

	// Round-2 block extending genesis: genesis is finalized, but it is not
	// the round-1 extension point — must stay invalid and unvoted.
	r.clearActs()
	stale := r.leaderBlock(2, types.Genesis().ID(), 's')
	r.deliver(stale.Proposer, r.proposalFor(stale))
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		for _, v := range vm.Votes {
			if v.Block == stale.ID() {
				t.Fatalf("voted %v for a stale-parent block", v.Kind)
			}
		}
	}

	// The legitimate extension of the round-1 tip still validates.
	good := r.leaderBlock(2, a1.ID(), 'g')
	r.deliver(good.Proposer, r.proposalFor(good))
	var voted bool
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		for _, v := range vm.Votes {
			if v.Block == good.ID() {
				voted = true
			}
		}
	}
	if !voted {
		t.Fatal("adjacent finalized parent rejected")
	}
}

// TestConflictingFinalizationFaults: a quorum certificate finalizing a
// chain that contradicts the locally finalized prefix must fire the
// safety-fault path (SafetyFault action, engine halt) rather than be
// absorbed.
func TestConflictingFinalizationFaults(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(4, 0))

	a1 := r.leaderBlock(1, types.Genesis().ID(), 'a')
	r.deliver(a1.Proposer, r.proposalFor(a1))
	r.deliver(a1.Proposer, r.fastFinalCert(a1, 1, 2, 3))

	// A conflicting round-1 fork b1, and b2 on top of it with forged-quorum
	// credentials (every signer is available to the test).
	b1 := r.leaderBlock(1, types.Genesis().ID(), 'b')
	r.deliver(b1.Proposer, r.proposalFor(b1))
	for _, voter := range []types.ReplicaID{1, 2, 3} {
		r.deliver(voter, &types.VoteMsg{Votes: []types.Vote{r.fastVote(voter, b1)}})
	}
	notarB1, err := types.NewCertificate(types.CertNotarization, 1, b1.ID(), []types.Vote{
		r.notarVote(1, b1), r.notarVote(2, b1), r.notarVote(3, b1),
	})
	if err != nil {
		t.Fatal(err)
	}
	b2 := r.leaderBlock(2, b1.ID(), 'c')
	fv := r.fastVote(b2.Proposer, b2)
	r.clearActs()
	r.deliver(b2.Proposer, &types.Proposal{Block: b2, FastVote: &fv, ParentNotarization: notarB1})
	r.deliver(b2.Proposer, r.fastFinalCert(b2, 1, 2, 3))

	var faults []protocol.SafetyFault
	for _, a := range r.acts {
		if f, ok := a.(protocol.SafetyFault); ok {
			faults = append(faults, f)
		}
	}
	if len(faults) == 0 {
		t.Fatal("conflicting finalization did not raise a SafetyFault")
	}
	if !errors.Is(faults[0].Err, blocktree.ErrSafetyViolation) {
		t.Fatalf("fault = %v, want ErrSafetyViolation", faults[0].Err)
	}
}

// TestOptimisticDisabledNoBareBroadcast: without the knob the engine
// never emits a credential-less proposal.
func TestOptimisticDisabledNoBareBroadcast(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(2, 0))
	a := r.leaderBlock(1, types.Genesis().ID(), 'a')
	r.deliver(a.Proposer, r.proposalFor(a))
	if len(bareProposals(r)) != 0 {
		t.Fatal("knob off but a bare optimistic proposal was broadcast")
	}
}

// --- WAL replay of the optimistic lifecycle -------------------------------
//
// The recorder journals the bare broadcast and (if reached) the
// confirmation fast vote or fallback proposal as KindOwn records. Replay
// must restore exactly the pre-crash state: a pending optimistic
// proposal is pending again (same block, no new signatures), a confirmed
// one is this round's proposal, a withdrawn one stays withdrawn.

// optimisticFirstLife drives a leader-of-round-2 rig to the bare
// broadcast and returns the rig, round-1's block, and the phase-1 own
// messages (journal order).
func optimisticFirstLife(t *testing.T) (*rig, *types.Block, []types.Message) {
	t.Helper()
	set := genesisSet(t, p411)
	var calls []types.Round
	r := newRig(t, p411, set.ReplicaAt(2, 0), withOptimistic, countingPayloads(&calls))
	a := r.leaderBlock(1, types.Genesis().ID(), 'a')
	r.deliver(a.Proposer, r.proposalFor(a))
	if len(bareProposals(r)) != 1 {
		t.Fatal("no optimistic broadcast in first life")
	}
	return r, a, ownBroadcasts(r)
}

// TestReplayRestoresPendingOptimistic: crash between the bare broadcast
// and the parent's certification. Replay must restore the proposal as
// pending — not adopted, not signed again — and the post-replay
// confirmation must reuse the journaled block.
func TestReplayRestoresPendingOptimistic(t *testing.T) {
	r, a, own := optimisticFirstLife(t)
	opt := bareProposals(r)[0].Block

	now := time.Unix(10, 0)
	eng2 := replayRig(t, r, withOptimistic)
	eng2.BeginReplay()
	var acts []protocol.Action
	acts = append(acts, eng2.Start(now)...)
	acts = append(acts, eng2.HandleMessage(a.Proposer, r.proposalFor(a), now)...)
	for _, m := range own {
		acts = append(acts, eng2.ReplayOwn(m, now)...)
	}
	if v, p := countSigning(acts); v != 0 || p != 0 {
		t.Fatalf("replay signed: %d vote msgs, %d proposals", v, p)
	}
	acts = eng2.EndReplay(now)
	if v, p := countSigning(acts); v != 0 || p != 0 {
		t.Fatalf("EndReplay re-signed: %d vote msgs, %d proposals (body is already on the wire)", v, p)
	}
	if eng2.opt == nil || eng2.opt.block.ID() != opt.ID() {
		t.Fatal("pending optimistic proposal not restored")
	}
	if rs := eng2.rounds[2]; rs != nil && rs.proposed {
		t.Fatal("pending optimistic proposal replayed as a committed proposal")
	}
	if m := eng2.Metrics(); m["opt_proposed"] != 1 {
		t.Fatalf("opt_proposed = %d after replay, want 1", m["opt_proposed"])
	}

	// Live continuation: certify round 1 on the expected parent — the
	// confirmation must fast-vote the journaled block, without a second
	// body broadcast.
	set := r.set
	peer1, peer2 := set.ReplicaAt(1, 2), set.ReplicaAt(1, 3)
	var live []protocol.Action
	live = append(live, eng2.HandleMessage(peer1,
		&types.VoteMsg{Votes: []types.Vote{r.fastVote(peer1, a), r.notarVote(peer1, a)}}, now)...)
	live = append(live, eng2.HandleMessage(peer2,
		&types.VoteMsg{Votes: []types.Vote{r.fastVote(peer2, a), r.notarVote(peer2, a)}}, now)...)
	var confirmed, rebroadcast bool
	for _, act := range live {
		b, ok := act.(protocol.Broadcast)
		if !ok {
			continue
		}
		switch m := b.Msg.(type) {
		case *types.VoteMsg:
			for _, v := range m.Votes {
				if v.Kind == types.VoteFast && v.Round == 2 && v.Block == opt.ID() {
					confirmed = true
				}
			}
		case *types.Proposal:
			if !m.Relayed && m.Block.Round == 2 {
				rebroadcast = true
			}
		}
	}
	if !confirmed {
		t.Fatal("post-replay confirmation did not fast-vote the journaled block")
	}
	if rebroadcast {
		t.Fatal("post-replay confirmation re-broadcast the body")
	}
}

// TestReplayRestoresConfirmedOptimistic: crash after the confirmation.
// Replay must land the block as this round's proposal with the fast vote
// on the ledger, signing nothing.
func TestReplayRestoresConfirmedOptimistic(t *testing.T) {
	r, a, phase1 := optimisticFirstLife(t)
	opt := bareProposals(r)[0].Block
	set := r.set
	peer1, peer2 := set.ReplicaAt(1, 2), set.ReplicaAt(1, 3)
	votes1 := &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer1, a), r.notarVote(peer1, a)}}
	votes2 := &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer2, a), r.notarVote(peer2, a)}}
	r.clearActs()
	r.deliver(peer1, votes1)
	r.deliver(peer2, votes2)
	phase2 := ownBroadcasts(r)

	now := time.Unix(10, 0)
	eng2 := replayRig(t, r, withOptimistic)
	eng2.BeginReplay()
	var acts []protocol.Action
	acts = append(acts, eng2.Start(now)...)
	acts = append(acts, eng2.HandleMessage(a.Proposer, r.proposalFor(a), now)...)
	for _, m := range phase1 {
		acts = append(acts, eng2.ReplayOwn(m, now)...)
	}
	acts = append(acts, eng2.HandleMessage(peer1, votes1, now)...)
	acts = append(acts, eng2.HandleMessage(peer2, votes2, now)...)
	for _, m := range phase2 {
		acts = append(acts, eng2.ReplayOwn(m, now)...)
	}
	if v, p := countSigning(acts); v != 0 || p != 0 {
		t.Fatalf("replay signed: %d vote msgs, %d proposals", v, p)
	}
	eng2.EndReplay(now)

	if eng2.opt != nil {
		t.Fatal("confirmed optimistic proposal still pending after replay")
	}
	rs := eng2.rounds[2]
	if rs == nil || !rs.proposed || !rs.fastVoteSent {
		t.Fatal("confirmed optimistic proposal not restored as the round's proposal")
	}
	if rs.set(types.VoteFast, opt.ID()).count() == 0 {
		t.Fatal("replayed confirmation fast vote missing from the ledger")
	}
	if _, ok := eng2.Tree().Block(opt.ID()); !ok {
		t.Fatal("confirmed block missing from the replayed tree")
	}
	if m := eng2.Metrics(); m["opt_confirmed"] != 1 {
		t.Fatalf("opt_confirmed = %d after replay, want 1", m["opt_confirmed"])
	}
}

// TestReplayKeepsWithdrawnOptimisticInert: crash after a withdraw +
// fallback re-proposal. Replay must adopt the fallback, drop the
// withdrawn block, and never resurrect it — the equivocation hazard the
// WAL journaling exists to prevent.
func TestReplayKeepsWithdrawnOptimisticInert(t *testing.T) {
	r, a, phase1 := optimisticFirstLife(t)
	opt := bareProposals(r)[0].Block
	set := r.set
	a2 := r.leaderBlock(1, types.Genesis().ID(), 'z')
	peer1, peer2 := set.ReplicaAt(1, 2), set.ReplicaAt(1, 3)
	votes1 := &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer1, a2), r.notarVote(peer1, a2)}}
	votes2 := &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer2, a2), r.notarVote(peer2, a2)}}
	r.clearActs()
	r.deliver(a2.Proposer, r.proposalFor(a2))
	r.deliver(peer1, votes1)
	r.deliver(peer2, votes2)
	phase2 := ownBroadcasts(r)
	props := ownRound2Proposals(r)
	if len(props) != 1 {
		t.Fatalf("fallback proposals = %d, want 1", len(props))
	}
	fallback := props[0].Block

	now := time.Unix(10, 0)
	eng2 := replayRig(t, r, withOptimistic)
	eng2.BeginReplay()
	var acts []protocol.Action
	acts = append(acts, eng2.Start(now)...)
	acts = append(acts, eng2.HandleMessage(a.Proposer, r.proposalFor(a), now)...)
	for _, m := range phase1 {
		acts = append(acts, eng2.ReplayOwn(m, now)...)
	}
	acts = append(acts, eng2.HandleMessage(a2.Proposer, r.proposalFor(a2), now)...)
	acts = append(acts, eng2.HandleMessage(peer1, votes1, now)...)
	acts = append(acts, eng2.HandleMessage(peer2, votes2, now)...)
	for _, m := range phase2 {
		acts = append(acts, eng2.ReplayOwn(m, now)...)
	}
	if v, p := countSigning(acts); v != 0 || p != 0 {
		t.Fatalf("replay signed: %d vote msgs, %d proposals", v, p)
	}
	eng2.EndReplay(now)

	if eng2.opt != nil {
		t.Fatal("withdrawn optimistic proposal resurrected as pending")
	}
	rs := eng2.rounds[2]
	if rs == nil || !rs.proposed {
		t.Fatal("fallback proposal not restored")
	}
	if rs.block(fallback.ID()) == nil {
		t.Fatal("fallback block missing from the replayed round")
	}
	if _, ok := eng2.Tree().Block(opt.ID()); ok {
		t.Fatal("withdrawn block adopted into the replayed tree")
	}
	m := eng2.Metrics()
	if m["opt_withdrawn"] != 1 || m["opt_confirmed"] != 0 {
		t.Fatalf("metrics withdrawn=%d confirmed=%d after replay, want 1/0",
			m["opt_withdrawn"], m["opt_confirmed"])
	}
}
