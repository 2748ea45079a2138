package core

import (
	"slices"
	"testing"
	"time"

	"banyan/internal/fetch"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Header relay / body pull unit battery: what a header for an unknown
// block may and may not do, when the pull fires and whom it asks, that
// a pull reply is an ordinary votable proposal, and the bounds on the
// peer-fed state.

// headerRelayFor builds the header relay a peer broadcasts after voting
// for b: signed header, no payload, the proposer's fast vote for rank 0.
func (r *rig) headerRelayFor(b *types.Block) *types.Proposal {
	r.t.Helper()
	p := &types.Proposal{Header: b.SignedHeader(), Relayed: true}
	if b.Rank == 0 {
		fv := r.signers[b.Proposer].SignVote(types.VoteFast, b.Round, b.ID())
		p.FastVote = &fv
	}
	return p
}

// pullTick advances the clock and fires the body-pull timer.
func (r *rig) pullTick(d time.Duration) {
	r.t.Helper()
	r.now = r.now.Add(d)
	r.acts = append(r.acts, r.eng.HandleTimer(protocol.TimerID{Kind: protocol.TimerBodyPull}, r.now)...)
}

// pullRequests returns the BlockRequest unicasts recorded so far.
func pullRequests(r *rig) []protocol.Send { return sends[*types.BlockRequest](r) }

// pullTimers returns the times TimerBodyPull was armed for.
func pullTimers(r *rig) []time.Time {
	var out []time.Time
	for _, a := range r.acts {
		if st, ok := a.(protocol.SetTimer); ok && st.ID.Kind == protocol.TimerBodyPull {
			out = append(out, st.At)
		}
	}
	return out
}

func votedFor(r *rig, id types.BlockID) bool {
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		for _, v := range vm.Votes {
			if v.Block == id {
				return true
			}
		}
	}
	return false
}

// TestHeaderForUnknownBlockIsOnlyWanted: a header relay for a block this
// replica does not hold — proposer signature, fast vote and all — yields
// no vote, no relay, and no bodiless block in rs.blocks or the tree;
// only a wanted entry and a timer Δ out.
func TestHeaderForUnknownBlockIsOnlyWanted(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(1, 3))
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	relayer := set.ReplicaAt(1, 1)
	r.clearActs()
	r.deliver(relayer, r.headerRelayFor(b))

	if len(broadcasts[*types.VoteMsg](r)) != 0 || len(broadcasts[*types.Proposal](r)) != 0 {
		t.Fatalf("header for an unknown block produced broadcasts: %v", r.acts)
	}
	rs := r.eng.getRound(1)
	if rs.block(b.ID()) != nil || rs.peek(b.ID()).valid || rs.peek(b.ID()).pending != nil {
		t.Fatal("bodiless block entered round state")
	}
	if r.eng.Tree().Contains(b.ID()) {
		t.Fatal("bodiless block entered the tree")
	}
	// The credentials the relay carried are absorbed all the same.
	if !rs.set(types.VoteFast, b.ID()).has(b.Proposer) {
		t.Fatal("proposer fast vote carried by the header relay was dropped")
	}
	// Known holders, in the order heard: the relayer, then the proposer
	// (its fast vote rode on the relay).
	w, ok := r.eng.wanted[pullKey{round: 1, id: b.ID()}]
	if !ok || len(w.holders) != 2 || w.holders[0] != relayer || w.holders[1] != b.Proposer ||
		w.source != b.Proposer {
		t.Fatalf("wanted entry: %+v", w)
	}
	if at := pullTimers(r); len(at) != 1 || !at[0].Equal(r.now.Add(rigDelta)) {
		t.Fatalf("pull timer armed for %v, want exactly now+Δ", at)
	}
	if len(pullRequests(r)) != 0 || r.eng.Metrics()["body_pulls"] != 0 {
		t.Fatal("pulled before the proposer's copy was overdue")
	}

	// A header whose signature does not verify is rejected outright.
	forged := r.headerRelayFor(r.leaderBlock(1, types.Genesis().ID(), 2))
	header := *forged.Header // the block's own header is not to be written
	header.Signature = append([]byte(nil), header.Signature...)
	header.Signature[0] ^= 1
	forged.Header = &header
	before := r.eng.Metrics()["rejected"]
	r.deliver(relayer, forged)
	if len(r.eng.wanted) != 1 || r.eng.Metrics()["rejected"] != before+1 {
		t.Fatal("forged header was not rejected")
	}
	// So is a proposal carrying neither form.
	r.deliver(relayer, &types.Proposal{Relayed: true})
	if r.eng.Metrics()["rejected"] != before+2 {
		t.Fatal("empty proposal was not rejected")
	}
}

// TestPullFiresAtDeltaRotatesAndCancels walks the pull's whole life: not
// before Δ; at Δ one BlockRequest to the relayer; on silence the next
// known holder, then the ring; cancelled the moment the body lands.
func TestPullFiresAtDeltaRotatesAndCancels(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(1, 3)
	r := newRig(t, p411, self)
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	relayer, second := set.ReplicaAt(1, 2), set.ReplicaAt(1, 1)
	r.clearActs()
	r.deliver(relayer, r.headerRelayFor(b))

	r.pullTick(rigDelta - time.Millisecond)
	if len(pullRequests(r)) != 0 {
		t.Fatal("pull fired before Δ")
	}
	r.pullTick(time.Millisecond)
	reqs := pullRequests(r)
	if len(reqs) != 1 || reqs[0].To != relayer ||
		*reqs[0].Msg.(*types.BlockRequest) != (types.BlockRequest{Round: 1, ID: b.ID()}) {
		t.Fatalf("at Δ want one request to the relayer %d, got %v", relayer, reqs)
	}
	if m := r.eng.Metrics(); m["body_pulls"] != 1 || m["body_pull_retries"] != 0 {
		t.Fatalf("metrics after first request: %v", m)
	}

	// A second relayer shows up while the request is in flight. On
	// silence the known holders are asked in the order heard: the proposer
	// (its fast vote rode on the first relay), then the second relayer.
	r.deliver(second, r.headerRelayFor(b))
	timeout := bodyFetchDeltas * rigDelta
	r.pullTick(timeout - time.Millisecond)
	if len(pullRequests(r)) != 1 {
		t.Fatal("rotated before the silence budget ran out")
	}
	r.pullTick(time.Millisecond)
	if reqs = pullRequests(r); len(reqs) != 2 || reqs[1].To != b.Proposer {
		t.Fatalf("on silence want the next known holder %d, got %v", b.Proposer, reqs)
	}
	r.pullTick(timeout)
	if reqs = pullRequests(r); len(reqs) != 3 || reqs[2].To != second {
		t.Fatalf("on silence want the last known holder %d, got %v", second, reqs)
	}
	// Holders exhausted: the ring takes over, never self, never the peer
	// that just timed out.
	r.pullTick(timeout)
	if reqs = pullRequests(r); len(reqs) != 4 || reqs[3].To == self || reqs[3].To == second {
		t.Fatalf("ring rotation went to %v", reqs[len(reqs)-1].To)
	}
	if m := r.eng.Metrics(); m["body_pulls"] != 1 || m["body_pull_retries"] != 3 {
		t.Fatalf("metrics after rotations: %v", m)
	}

	// The proposer's copy finally lands: voted, nothing wanted, nothing in
	// flight, and later timer fires send nothing.
	r.deliver(b.Proposer, r.proposalFor(b))
	if !votedFor(r, b.ID()) {
		t.Fatal("block not voted once its body arrived")
	}
	if len(r.eng.wanted) != 0 || !r.eng.pulls.Idle() {
		t.Fatal("pull not cancelled by the body's arrival")
	}
	r.pullTick(10 * timeout)
	if len(pullRequests(r)) != 4 {
		t.Fatal("request sent after the pull was cancelled")
	}
}

// TestDirectCopyBeforeDeltaNeverPulls is the honest path with the relay
// overtaking the body: the header arrives first, the proposer's copy
// within Δ — zero requests, ever.
func TestDirectCopyBeforeDeltaNeverPulls(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(1, 3))
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(set.ReplicaAt(1, 1), r.headerRelayFor(b))
	r.now = r.now.Add(rigDelta / 2)
	r.deliver(b.Proposer, r.proposalFor(b))
	if !votedFor(r, b.ID()) {
		t.Fatal("block not voted")
	}
	r.pullTick(rigDelta)
	r.pullTick(10 * rigDelta)
	if n := len(pullRequests(r)); n != 0 || r.eng.Metrics()["body_pulls"] != 0 {
		t.Fatalf("%d pull requests on the honest path", n)
	}
	// A header relay arriving after the body changes nothing either.
	r.deliver(set.ReplicaAt(1, 2), r.headerRelayFor(b))
	if len(r.eng.wanted) != 0 {
		t.Fatal("header relay of a held block left a wanted entry")
	}
}

// TestVoteForUnknownBlockPullsFromVoter: a vote alone names a holder.
func TestVoteForUnknownBlockPullsFromVoter(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(1, 3))
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	voter := set.ReplicaAt(1, 1)
	r.clearActs()
	r.deliver(voter, &types.VoteMsg{Votes: []types.Vote{r.notarVote(voter, b), r.fastVote(voter, b)}})
	r.pullTick(rigDelta)
	if reqs := pullRequests(r); len(reqs) != 1 || reqs[0].To != voter {
		t.Fatalf("want one request to the voter %d, got %v", voter, reqs)
	}
}

// TestServedPullReplyValidatesAndIsVoted runs both ends: a replica that
// holds the block answers the BlockRequest with the body-form relay, and
// the requester validates it from the credentials it carries and votes.
func TestServedPullReplyValidatesAndIsVoted(t *testing.T) {
	set := genesisSet(t, p411)
	serverID, requesterID := set.ReplicaAt(1, 2), set.ReplicaAt(1, 3)
	server := newRig(t, p411, serverID)
	b := server.leaderBlock(1, types.Genesis().ID(), 1)
	server.deliver(b.Proposer, server.proposalFor(b))
	var relay *types.Proposal
	for _, p := range broadcasts[*types.Proposal](server) {
		if p.Relayed {
			relay = p
		}
	}
	if relay == nil {
		t.Fatal("server did not relay")
	}

	req := newRig(t, p411, requesterID)
	req.deliver(serverID, relay)
	req.pullTick(rigDelta)
	reqs := pullRequests(req)
	if len(reqs) != 1 || reqs[0].To != serverID {
		t.Fatalf("requester asked %v", reqs)
	}

	server.clearActs()
	server.deliver(requesterID, reqs[0].Msg)
	replies := sends[*types.Proposal](server)
	if len(replies) != 1 || replies[0].To != requesterID {
		t.Fatalf("server replied %v", server.acts)
	}
	reply := replies[0].Msg.(*types.Proposal)
	if !reply.Relayed || reply.Block == nil || reply.Block.ID() != b.ID() || reply.FastVote == nil {
		t.Fatalf("reply is not the body-form relay: %#v", reply)
	}
	if m := server.eng.Metrics(); m["body_pulls_served"] != 1 || m["body_pulls_refused"] != 0 {
		t.Fatalf("server metrics: %v", m)
	}

	req.clearActs()
	req.deliver(serverID, reply)
	if !votedFor(req, b.ID()) {
		t.Fatal("requester did not vote for the pulled block")
	}
	if req.eng.Metrics()["relays"] != 1 {
		t.Fatal("requester did not relay the header after voting")
	}
	if len(req.eng.wanted) != 0 || req.eng.pulls.Fetching() {
		t.Fatal("pull state survived the reply")
	}
}

// TestServeBounds: unknown blocks are refused silently, and one peer gets
// at most maxServedPerPeer bodies per round.
func TestServeBounds(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(1, 3))
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b.Proposer, r.proposalFor(b))
	peer := set.ReplicaAt(1, 1)
	r.clearActs()
	r.deliver(peer, &types.BlockRequest{Round: 1, ID: types.BlockID{0xBA, 0xD}})
	r.deliver(peer, &types.BlockRequest{Round: 77, ID: b.ID()})
	if len(r.acts) != 0 || r.eng.Metrics()["body_pulls_refused"] != 2 {
		t.Fatalf("unknown block: acts %v, metrics %v", r.acts, r.eng.Metrics())
	}
	for i := 0; i < maxServedPerPeer+3; i++ {
		r.deliver(peer, &types.BlockRequest{Round: 1, ID: b.ID()})
	}
	if n := len(sends[*types.Proposal](r)); n != maxServedPerPeer {
		t.Fatalf("served %d bodies to one peer, cap %d", n, maxServedPerPeer)
	}
	if m := r.eng.Metrics(); m["body_pulls_served"] != maxServedPerPeer || m["body_pulls_refused"] != 5 {
		t.Fatalf("metrics: %v", m)
	}
	// Another peer has its own budget.
	r.clearActs()
	r.deliver(set.ReplicaAt(1, 2), &types.BlockRequest{Round: 1, ID: b.ID()})
	if len(sends[*types.Proposal](r)) != 1 {
		t.Fatal("second peer not served")
	}
}

// TestWantedStateIsBounded: a proposer gets maxWantedPerSource bodiless
// headers per round, a voter as many vote-named IDs, and the total is
// capped at maxWanted whatever the number of rounds.
func TestWantedStateIsBounded(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(1, 3))
	relayer := set.ReplicaAt(1, 1)
	for i := 0; i < maxWantedPerSource+3; i++ {
		r.deliver(relayer, r.headerRelayFor(r.leaderBlock(1, types.Genesis().ID(), byte(i))))
	}
	if len(r.eng.wanted) != maxWantedPerSource {
		t.Fatalf("%d bodiless headers of one proposer kept, cap %d", len(r.eng.wanted), maxWantedPerSource)
	}
	// The first few are the ones kept.
	first := r.leaderBlock(1, types.Genesis().ID(), 0)
	if _, ok := r.eng.wanted[pullKey{round: 1, id: first.ID()}]; !ok {
		t.Fatal("the first header heard was not kept")
	}
	// A voter naming many IDs is bounded the same way, separately.
	votes := &types.VoteMsg{}
	for i := 0; i < maxWantedPerSource+3; i++ {
		votes.Votes = append(votes.Votes, r.signers[relayer].SignVote(types.VoteNotarize, 1, types.BlockID{0xEE, byte(i)}))
	}
	r.deliver(relayer, votes)
	if len(r.eng.wanted) != 2*maxWantedPerSource {
		t.Fatalf("wanted = %d after a vote flood, want %d", len(r.eng.wanted), 2*maxWantedPerSource)
	}
	// Many rounds: the total cap holds.
	for round := types.Round(2); round < 2+maxWanted; round++ {
		r.deliver(relayer, r.headerRelayFor(r.leaderBlock(round, types.BlockID{1}, 9)))
	}
	if len(r.eng.wanted) != maxWanted {
		t.Fatalf("wanted = %d, cap %d", len(r.eng.wanted), maxWanted)
	}
	// Everything falls due; requests stay within the fetcher's window.
	r.clearActs()
	r.pullTick(rigDelta)
	if n := len(pullRequests(r)); n != fetch.Window {
		t.Fatalf("%d requests in flight at once, window %d", n, fetch.Window)
	}
}

// TestPullAbandonedAfterFullRotation: a block nobody serves is forgotten
// after every holder and the ring had their turn, and hearing of it again
// starts over.
func TestPullAbandonedAfterFullRotation(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(1, 3))
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	relayer := set.ReplicaAt(1, 1)
	r.deliver(relayer, r.headerRelayFor(b))
	r.pullTick(rigDelta)
	timeout := bodyFetchDeltas * rigDelta
	for i := 0; i < 8 && len(r.eng.wanted) > 0; i++ {
		r.pullTick(timeout)
	}
	if len(r.eng.wanted) != 0 || r.eng.pulls.Fetching() {
		t.Fatal("unserved pull never abandoned")
	}
	if n := len(pullRequests(r)); n != p411.N {
		t.Fatalf("%d requests before giving up, want %d", n, p411.N)
	}
	r.deliver(relayer, r.headerRelayFor(b))
	if len(r.eng.wanted) != 1 {
		t.Fatal("hearing of the block again did not restart the pull")
	}
}

// TestFinalizedRoundDropsWanted: once the round finalizes (here: a rival
// block this replica does hold) the bodiless block is moot.
func TestFinalizedRoundDropsWanted(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(4, 0))
	a := r.leaderBlock(1, types.Genesis().ID(), 'a')
	twin := r.leaderBlock(1, types.Genesis().ID(), 'b')
	r.deliver(a.Proposer, r.proposalFor(a))
	r.deliver(set.ReplicaAt(1, 1), r.headerRelayFor(twin))
	if len(r.eng.wanted) != 1 {
		t.Fatal("twin header not wanted")
	}
	r.deliver(a.Proposer, r.fastFinalCert(a, 1, 2, 3))
	if r.eng.Tree().FinalizedRound() != 1 {
		t.Fatal("round 1 not finalized")
	}
	if len(r.eng.wanted) != 0 {
		t.Fatal("wanted entry outlived its round's finalization")
	}
	r.pullTick(rigDelta)
	if len(pullRequests(r)) != 0 {
		t.Fatal("pulled a block of a finalized round")
	}
}

// TestBareBodyPlusHeaderRelayZeroPulls: the leader's body arrived bare,
// without its fast vote (a Byzantine leader can send it so); a header
// relay carrying that vote and the parent credentials validates the
// parked body — no pull, the body is already here.
func TestBareBodyPlusHeaderRelayZeroPulls(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(1, 3))
	a := r.leaderBlock(1, types.Genesis().ID(), 'a')
	r.deliver(a.Proposer, r.proposalFor(a))
	leader2 := set.ReplicaAt(2, 0)
	b := types.NewBlock(2, leader2, 0, a.ID(), types.BytesPayload([]byte{'b'}))
	if err := r.signers[leader2].SignBlock(b); err != nil {
		t.Fatal(err)
	}
	r.deliver(leader2, &types.Proposal{Block: b}) // bare body, parked
	peer1, peer2 := set.ReplicaAt(1, 1), set.ReplicaAt(1, 2)
	r.deliver(peer1, &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer1, a), r.notarVote(peer1, a)}})
	r.deliver(peer2, &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer2, a), r.notarVote(peer2, a)}})
	if r.eng.Round() != 2 {
		t.Fatalf("round = %d, want 2", r.eng.Round())
	}
	if votedFor(r, b.ID()) {
		t.Fatal("voted for the bare rank-0 block")
	}
	r.clearActs()
	r.deliver(peer1, r.headerRelayFor(b))
	if !votedFor(r, b.ID()) {
		t.Fatal("header relay carrying the fast vote did not validate the parked body")
	}
	r.pullTick(10 * rigDelta)
	if m := r.eng.Metrics(); m["body_pulls"] != 0 || len(r.eng.wanted) != 0 || len(pullTimers(r)) != 0 {
		t.Fatalf("pull machinery engaged for a held body: %v", m)
	}
}

// TestReplayHeaderWithoutBodyRepulls: the journal holds a header relay
// but no body (the crash hit between the two). Replay must not vote,
// must not wedge, and the live engine re-pulls after a fresh Δ.
func TestReplayHeaderWithoutBodyRepulls(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(1, 3))
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	relayer := set.ReplicaAt(1, 1)
	relay := r.headerRelayFor(b)

	e := replayRig(t, r)
	restart := r.now.Add(time.Hour)
	e.BeginReplay()
	acts := slices.Clone(e.Start(restart))
	acts = append(acts, e.HandleMessage(relayer, relay, restart)...)
	for _, a := range acts {
		switch a.(type) {
		case protocol.Broadcast, protocol.Send:
			t.Fatalf("replay emitted %T", a)
		}
	}
	live := e.EndReplay(restart)
	r.eng, r.now, r.acts = e, restart, live
	if v, p := countSigning(live); v != 0 || p != 0 {
		t.Fatalf("restart signed %d votes, %d proposals for a block it has no body of", v, p)
	}
	if at := pullTimers(r); len(at) != 1 || !at[0].Equal(restart.Add(rigDelta)) {
		t.Fatalf("restart armed the pull timer for %v, want restart+Δ", at)
	}
	r.pullTick(rigDelta)
	if reqs := pullRequests(r); len(reqs) != 1 || reqs[0].To != relayer {
		t.Fatalf("restarted replica asked %v", reqs)
	}
	// The reply un-wedges it.
	reply := r.proposalFor(b)
	reply.Relayed = true
	r.deliver(relayer, reply)
	if !votedFor(r, b.ID()) {
		t.Fatal("restarted replica did not vote once the body was pulled")
	}
}

// TestWantedHeaderVerifiedOnce: a wanted entry made from a verified
// header keeps its signature, so another relay of that header and the
// body carrying the same signature cost no second check; the same ID
// under other signature bytes is checked, and an entry made from a vote
// verifies the first header that reaches it.
func TestWantedHeaderVerifiedOnce(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(1, 3))
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	relay := func() *types.Proposal { return &types.Proposal{Header: b.SignedHeader(), Relayed: true} }
	flipped := append([]byte(nil), b.Signature...)
	flipped[0] ^= 1

	r.deliver(set.ReplicaAt(1, 1), relay())
	checked := sigsVerified(r)
	r.deliver(set.ReplicaAt(1, 2), relay())
	if got := sigsVerified(r); got != checked {
		t.Fatalf("an identical header relay verified %d signatures, want 0", got-checked)
	}
	if w := r.eng.wanted[pullKey{round: 1, id: b.ID()}]; w == nil || len(w.holders) != 2 {
		t.Fatalf("second relayer not recorded as a holder: %+v", w)
	}

	rejected := r.eng.Metrics()["rejected"]
	forged := relay()
	header := *forged.Header // the block's own header is not to be written
	header.Signature = flipped
	forged.Header = &header
	r.deliver(set.ReplicaAt(1, 1), forged)
	forgedBody := types.NewBlock(b.Round, b.Proposer, b.Rank, b.Parent, b.Payload)
	forgedBody.Signature = flipped
	r.deliver(b.Proposer, &types.Proposal{Block: forgedBody})
	if got := sigsVerified(r); got != checked+2 || r.eng.Metrics()["rejected"] != rejected+2 {
		t.Fatalf("same ID, other signature: %d checked, %d rejected; want 2 and 2",
			got-checked, r.eng.Metrics()["rejected"]-rejected)
	}

	r.deliver(b.Proposer, &types.Proposal{Block: b})
	if got := sigsVerified(r); got != checked+2 || r.eng.getRound(1).block(b.ID()) == nil {
		t.Fatalf("body with the checked signature: %d verified, held %v",
			got-checked-2, r.eng.getRound(1).block(b.ID()) != nil)
	}

	// An entry a vote made holds no header signature: the first header
	// that reaches it is checked, the next is not.
	late := r.rankedBlock(1, 1, types.Genesis().ID(), 2)
	r.deliver(set.ReplicaAt(1, 2), &types.VoteMsg{Votes: []types.Vote{r.notarVote(set.ReplicaAt(1, 2), late)}})
	checked = sigsVerified(r)
	for i := 0; i < 2; i++ {
		r.deliver(set.ReplicaAt(1, 1), &types.Proposal{Header: late.SignedHeader(), Relayed: true})
	}
	if got := sigsVerified(r); got != checked+1 {
		t.Fatalf("two relays onto a vote-made entry verified %d signatures, want 1", got-checked)
	}
}
