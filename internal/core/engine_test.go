package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"banyan/internal/blocktree"
	"banyan/internal/crypto"
	"banyan/internal/membership"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// rig drives a single Banyan engine directly, with signers for every
// replica so tests can fabricate any peer message.
type rig struct {
	t       *testing.T
	params  types.Params
	keyring *crypto.Keyring
	signers []*crypto.Signer
	set     *membership.ValidatorSet // the engine's genesis set: its leader schedule
	eng     *Engine
	now     time.Time
	acts    []protocol.Action
}

const rigDelta = 10 * time.Millisecond

func newRig(t *testing.T, params types.Params, self types.ReplicaID, opts ...func(*Config)) *rig {
	t.Helper()
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 7)
	cfg := Config{
		Params:  params,
		Self:    self,
		Keyring: keyring,
		Signer:  signers[self],
		Delta:   rigDelta,
	}
	for _, o := range opts {
		o(&cfg)
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{
		t:       t,
		params:  params,
		keyring: keyring,
		signers: signers,
		set:     eng.History().Genesis(),
		eng:     eng,
		now:     time.Unix(0, 0),
	}
	// The engine reuses its action list from call to call; the rig keeps
	// its own copy of everything returned.
	r.acts = slices.Clone(eng.Start(r.now))
	return r
}

func (r *rig) deliver(from types.ReplicaID, msg types.Message) {
	r.t.Helper()
	r.acts = append(r.acts, r.eng.HandleMessage(from, msg, r.now)...)
}

func (r *rig) tick(d time.Duration) {
	r.t.Helper()
	r.now = r.now.Add(d)
	r.acts = append(r.acts, r.eng.HandleTimer(protocol.TimerID{}, r.now)...)
}

// leaderBlock builds and signs a rank-0 block for the round.
func (r *rig) leaderBlock(round types.Round, parent types.BlockID, tag byte) *types.Block {
	r.t.Helper()
	leader := r.set.Leader(round)
	b := types.NewBlock(round, leader, 0, parent, types.BytesPayload([]byte{tag}))
	if err := r.signers[leader].SignBlock(b); err != nil {
		r.t.Fatal(err)
	}
	return b
}

// rankedBlock builds a signed block of the given rank for the round.
func (r *rig) rankedBlock(round types.Round, rank types.Rank, parent types.BlockID, tag byte) *types.Block {
	r.t.Helper()
	proposer := r.set.ReplicaAt(round, rank)
	b := types.NewBlock(round, proposer, rank, parent, types.BytesPayload([]byte{tag}))
	if err := r.signers[proposer].SignBlock(b); err != nil {
		r.t.Fatal(err)
	}
	return b
}

// proposalFor wraps a rank-0 block in a Proposal with the proposer's fast
// vote attached, as Addition 2 requires.
func (r *rig) proposalFor(b *types.Block) *types.Proposal {
	r.t.Helper()
	p := &types.Proposal{Block: b}
	if b.Rank == 0 {
		fv := r.signers[b.Proposer].SignVote(types.VoteFast, b.Round, b.ID())
		p.FastVote = &fv
	}
	return p
}

func (r *rig) fastVote(voter types.ReplicaID, b *types.Block) types.Vote {
	return r.signers[voter].SignVote(types.VoteFast, b.Round, b.ID())
}

func (r *rig) notarVote(voter types.ReplicaID, b *types.Block) types.Vote {
	return r.signers[voter].SignVote(types.VoteNotarize, b.Round, b.ID())
}

func (r *rig) finalVote(voter types.ReplicaID, b *types.Block) types.Vote {
	return r.signers[voter].SignVote(types.VoteFinalize, b.Round, b.ID())
}

// commits extracts Commit actions accumulated so far.
func (r *rig) commits() []protocol.Commit {
	var out []protocol.Commit
	for _, a := range r.acts {
		if c, ok := a.(protocol.Commit); ok {
			out = append(out, c)
		}
	}
	return out
}

// broadcasts extracts broadcast messages of a concrete type.
func broadcasts[T types.Message](r *rig) []T {
	var out []T
	for _, a := range r.acts {
		if b, ok := a.(protocol.Broadcast); ok {
			if m, ok := b.Msg.(T); ok {
				out = append(out, m)
			}
		}
	}
	return out
}

// sends collects unicast messages of one type from the recorded actions,
// paired with their destination.
func sends[T types.Message](r *rig) []protocol.Send {
	var out []protocol.Send
	for _, a := range r.acts {
		if s, ok := a.(protocol.Send); ok {
			if _, ok := s.Msg.(T); ok {
				out = append(out, s)
			}
		}
	}
	return out
}

func (r *rig) clearActs() { r.acts = nil }

// countingPayloads records every NextPayload call so tests can assert
// the payload source is consulted exactly once per proposed round (a
// carried payload is reused, not drawn a second time).
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

// bareProposals filters own credential-less rank-0 broadcasts: no fast
// vote, no parent credentials.
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

var p411 = types.Params{N: 4, F: 1, P: 1}

// TestLeaderProposesImmediately: the round-1 leader proposes at Start with
// its fast vote attached.
func TestLeaderProposesImmediately(t *testing.T) {
	leader := genesisSet(t, p411).Leader(1)
	r := newRig(t, p411, leader)
	props := broadcasts[*types.Proposal](r)
	if len(props) != 1 {
		t.Fatalf("leader broadcast %d proposals, want 1", len(props))
	}
	if props[0].FastVote == nil {
		t.Fatal("rank-0 proposal must carry the proposer's fast vote (Addition 2)")
	}
	if props[0].Block.Rank != 0 || props[0].Block.Round != 1 {
		t.Fatalf("unexpected block %v", props[0].Block)
	}
}

// TestNonLeaderWaitsProposalDelay: a rank-r replica proposes only after
// 2Δ·r (Algorithm 1 line 23).
func TestNonLeaderWaitsProposalDelay(t *testing.T) {
	set := genesisSet(t, p411)
	var rank1 types.ReplicaID = set.ReplicaAt(1, 1)
	r := newRig(t, p411, rank1)
	if len(broadcasts[*types.Proposal](r)) != 0 {
		t.Fatal("rank-1 replica proposed before its delay")
	}
	r.tick(2*rigDelta - time.Millisecond)
	if len(broadcasts[*types.Proposal](r)) != 0 {
		t.Fatal("rank-1 replica proposed before 2Δ")
	}
	r.tick(2 * time.Millisecond)
	props := broadcasts[*types.Proposal](r)
	if len(props) != 1 {
		t.Fatalf("rank-1 replica broadcast %d proposals after 2Δ, want 1", len(props))
	}
	if props[0].Block.Rank != 1 {
		t.Fatalf("block rank = %d, want 1", props[0].Block.Rank)
	}
	if props[0].FastVote != nil {
		t.Fatal("non-rank-0 proposal must not carry a proposer fast vote")
	}
}

// TestFirstVoteIsOneFastVote: the first vote of a round is a single fast
// vote — it is the notarization vote for the block as well (Addition 3 in
// one signature); a later block of the round gets a bare notarization vote.
func TestFirstVoteIsOneFastVote(t *testing.T) {
	set := genesisSet(t, p411)
	observer := set.ReplicaAt(1, 2) // neither leader nor rank-1
	r := newRig(t, p411, observer)
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b.Proposer, r.proposalFor(b))

	votes := broadcasts[*types.VoteMsg](r)
	if len(votes) != 1 {
		t.Fatalf("got %d vote messages, want 1", len(votes))
	}
	if vs := votes[0].Votes; len(vs) != 1 || vs[0].Kind != types.VoteFast || vs[0].Block != b.ID() {
		t.Fatalf("first vote must be one fast vote for the block, got %v", vs)
	}
	rs := r.eng.rounds[1]
	if !rs.peek(b.ID()).notarVoted || !rs.fastVoteSent {
		t.Fatal("the fast vote did not put the block in N")
	}
	if got := rs.notarSupport(b.ID()); got != 2 {
		t.Fatalf("notarization support = %d, want 2 (leader's fast vote + own)", got)
	}

	// An equivocating second rank-0 block gets a notarization vote only.
	r.clearActs()
	b2 := r.leaderBlock(1, types.Genesis().ID(), 2)
	r.deliver(b2.Proposer, r.proposalFor(b2))
	votes = broadcasts[*types.VoteMsg](r)
	if len(votes) != 1 {
		t.Fatalf("second block: got %d vote messages, want 1", len(votes))
	}
	if vs := votes[0].Votes; len(vs) != 1 || vs[0].Kind != types.VoteNotarize || vs[0].Block != b2.ID() {
		t.Fatalf("second block must get one bare notarization vote, got %v", vs)
	}
}

// TestVoteRespectsRankOrdering: with a valid rank-0 block present, a
// higher-rank block gets no vote; and a rank-1 block is voted only after
// its notarization delay when no rank-0 block exists.
func TestVoteRespectsRankOrdering(t *testing.T) {
	set := genesisSet(t, p411)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, p411, observer)
	rank1 := r.rankedBlock(1, 1, types.Genesis().ID(), 1)
	r.deliver(rank1.Proposer, &types.Proposal{Block: rank1})
	if len(broadcasts[*types.VoteMsg](r)) != 0 {
		t.Fatal("voted for a rank-1 block before its notarization delay")
	}
	// After Δ_notary(1) = 2Δ, the rank-1 block is voted.
	r.tick(2 * rigDelta)
	if len(broadcasts[*types.VoteMsg](r)) != 1 {
		t.Fatal("rank-1 block not voted after its delay")
	}
	// A late rank-0 block still gets a vote (no lower-rank block exists
	// below rank 0).
	r.clearActs()
	b0 := r.leaderBlock(1, types.Genesis().ID(), 2)
	r.deliver(b0.Proposer, r.proposalFor(b0))
	if len(broadcasts[*types.VoteMsg](r)) != 1 {
		t.Fatal("late rank-0 block not voted")
	}
}

// TestFPFinalization drives a full fast-path round at the leader: with
// n-p = 3 fast votes the block FP-finalizes and commits after a single
// round trip, with the fast finalization broadcast (Addition 4). That
// certificate is the round's notarization and unlock credential too, so
// the leader leaves the round without an Advance.
func TestFPFinalization(t *testing.T) {
	set := genesisSet(t, p411)
	leader := set.Leader(1)
	r := newRig(t, p411, leader)
	props := broadcasts[*types.Proposal](r)
	b := props[0].Block

	// Two peers return fast votes (plus the leader's own = 3 = n-p).
	peer1, peer2 := set.ReplicaAt(1, 1), set.ReplicaAt(1, 2)
	r.clearActs()
	r.deliver(peer1, &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer1, b), r.notarVote(peer1, b)}})
	if len(r.commits()) != 0 {
		t.Fatal("committed with only 2 fast votes")
	}
	r.deliver(peer2, &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer2, b), r.notarVote(peer2, b)}})

	commits := r.commits()
	if len(commits) != 1 {
		t.Fatalf("got %d commits, want 1", len(commits))
	}
	if commits[0].Explicit != protocol.FinalizeFast {
		t.Fatalf("finalization mode = %v, want fast", commits[0].Explicit)
	}
	if len(commits[0].Blocks) != 1 || !commits[0].Blocks[0].Equal(b) {
		t.Fatalf("committed wrong chain %v", commits[0].Blocks)
	}
	// The fast finalization certificate is broadcast, and it is the only
	// certificate that is.
	certs := broadcasts[*types.CertMsg](r)
	if len(certs) != 1 || certs[0].Cert.Kind != types.CertFastFinalization || certs[0].Cert.Block != b.ID() {
		t.Fatalf("certificates broadcast %v, want one fast finalization of %s", certs, b.ID())
	}
	fast := certs[0].Cert
	if err := crypto.VerifyCert(r.keyring, fast, r.params.NotarizationQuorum()); err != nil {
		t.Fatalf("fast certificate does not verify as a notarization quorum: %v", err)
	}
	// The engine advanced to round 2 through the fast certificate: it is
	// the round's notarization, no Advance went out, and no unlock proof
	// was built.
	if r.eng.Round() != 2 {
		t.Fatalf("round = %d, want 2", r.eng.Round())
	}
	if advs := broadcasts[*types.Advance](r); len(advs) != 0 {
		t.Fatalf("Advance broadcast after a fast-path round: %+v", advs)
	}
	rs := r.eng.rounds[1]
	if rs.notarization(b.ID()) != fast || rs.advanceNotar != fast || rs.advanceProof != nil {
		t.Fatalf("round 1 notarization %v, left with %v and unlock proof %v; want the fast certificate alone",
			rs.notarization(b.ID()), rs.advanceNotar, rs.advanceProof)
	}
	if m := r.eng.Metrics(); m["final_fast"] != 1 || m["final_slow"] != 0 ||
		m["advances"] != 0 || m["advances_skipped"] != 1 {
		t.Fatalf("metrics %v", m)
	}
}

// TestSPFinalization: without enough fast votes, finalization votes carry
// the round (the ICC slow path embedded in Banyan).
func TestSPFinalization(t *testing.T) {
	set := genesisSet(t, p411)
	leader := set.Leader(1)
	r := newRig(t, p411, leader)
	b := broadcasts[*types.Proposal](r)[0].Block
	peer1, peer2 := set.ReplicaAt(1, 1), set.ReplicaAt(1, 2)

	// The peers' fast votes went to a rank-1 block c (they saw it first),
	// so b can never collect n-p = 3 fast votes: the fast path is dark.
	// b still notarizes (3 notar votes incl. the leader's own), and
	// Condition 1 unlocks it: supp(b) = {leader} plus
	// supp(nonLeaderBlocks) = {peer1, peer2} exceeds f+p = 2.
	c := r.rankedBlock(1, 1, types.Genesis().ID(), 7)
	r.clearActs()
	r.deliver(c.Proposer, &types.Proposal{Block: c})
	r.deliver(peer1, &types.VoteMsg{Votes: []types.Vote{r.notarVote(peer1, b), r.fastVote(peer1, c)}})
	if r.eng.Round() != 1 {
		t.Fatalf("advanced too early: round %d", r.eng.Round())
	}
	r.deliver(peer2, &types.VoteMsg{Votes: []types.Vote{r.notarVote(peer2, b), r.fastVote(peer2, c)}})
	if r.eng.Round() != 2 {
		t.Fatalf("round = %d after notarization + unlock, want 2", r.eng.Round())
	}
	if m := r.eng.Metrics(); m["final_fast"] != 0 {
		t.Fatalf("fast path fired unexpectedly: %v", m)
	}
	// The leader's own finalization vote was broadcast (N = {b}).
	var finals int
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		for _, v := range vm.Votes {
			if v.Kind == types.VoteFinalize && v.Block == b.ID() {
				finals++
			}
		}
	}
	if finals != 1 {
		t.Fatalf("finalization votes broadcast = %d, want 1", finals)
	}
	// Two peer finalization votes complete SP-finalization.
	r.clearActs()
	r.deliver(peer1, &types.VoteMsg{Votes: []types.Vote{r.finalVote(peer1, b)}})
	r.deliver(peer2, &types.VoteMsg{Votes: []types.Vote{r.finalVote(peer2, b)}})
	commits := r.commits()
	if len(commits) != 1 || commits[0].Explicit != protocol.FinalizeSlow {
		t.Fatalf("commits %v", commits)
	}
}

// TestFigure4UnlockConditions reproduces Figure 4 (n=4, f=1, p=1,
// threshold f+p=2) against the engine's internal unlock state.
func TestFigure4UnlockConditions(t *testing.T) {
	set := genesisSet(t, p411)
	// The observer is the round-1 rank-3 replica so it proposes nothing.
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, p411, observer)

	// Round k (=1): the rank-0 block receives fast votes from replicas
	// 0,1,2 -> Condition 1 unlocks it.
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b.Proposer, r.proposalFor(b)) // includes the leader's fast vote
	rs := r.eng.getRound(1)
	if rs.isUnlocked(b.ID()) {
		t.Fatal("two fast votes (leader + observer's own) must not unlock (threshold 2)")
	}
	// Note the observer's own fast vote (cast on delivery, Addition 3)
	// plus the leader's (from the proposal) make two votes: still locked.
	v1 := set.ReplicaAt(1, 1)
	r.deliver(v1, &types.VoteMsg{Votes: []types.Vote{r.fastVote(v1, b)}})
	if !rs.isUnlocked(b.ID()) {
		t.Fatal("three fast votes (leader + own + peer) must unlock the rank-0 block (Condition 1)")
	}
	if rs.allUnlocked {
		t.Fatal("Condition 2 must not have fired for round k")
	}
}

// TestCondition2UnlocksAll drives the engine into Figure 4's round (k+1)
// situation: support spread over an equivocating leader's blocks and a
// rank-1 block unlocks every block of the round.
func TestCondition2UnlocksAll(t *testing.T) {
	set := genesisSet(t, p411)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, p411, observer)
	genesis := types.Genesis().ID()

	// Equivocating leader: two rank-0 blocks, one fast vote each; one
	// rank-1 block with two fast votes. Strict Condition 2: excluding
	// either rank-0 block leaves 3 distinct voters > 2.
	a := r.leaderBlock(1, genesis, 1)
	bb := r.leaderBlock(1, genesis, 2)
	c := r.rankedBlock(1, 1, genesis, 3)
	leader := a.Proposer
	rank1 := c.Proposer
	other := set.ReplicaAt(1, 2)

	r.deliver(leader, r.proposalFor(a))  // leader's fast vote on a
	r.deliver(leader, r.proposalFor(bb)) // leader's fast vote on bb (equivocated fast votes)
	r.deliver(rank1, &types.Proposal{Block: c})
	r.deliver(rank1, &types.VoteMsg{Votes: []types.Vote{r.fastVote(rank1, c)}})

	rs := r.eng.getRound(1)
	if rs.allUnlocked {
		t.Fatal("premature condition 2")
	}
	r.deliver(other, &types.VoteMsg{Votes: []types.Vote{r.fastVote(other, c)}})
	if !rs.allUnlocked {
		t.Fatalf("condition 2 should unlock all blocks (votes: a=1 b=1 c=2 spread over 3 voters)")
	}
	if !rs.isUnlocked(a.ID()) || !rs.isUnlocked(bb.ID()) || !rs.isUnlocked(c.ID()) {
		t.Fatal("allUnlocked must cover every block")
	}
}

// TestValidityRequiresParentCredentials: a round-2 block is pending until
// its parent is known notarized and unlocked.
func TestValidityRequiresParentCredentials(t *testing.T) {
	set := genesisSet(t, p411)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, p411, observer)

	// Build round 1 completely from peer messages.
	b1 := r.leaderBlock(1, types.Genesis().ID(), 1)
	var notarVotes, fastVotes []types.Vote
	for _, peer := range []types.ReplicaID{0, 1, 2} {
		notarVotes = append(notarVotes, r.notarVote(peer, b1))
		fastVotes = append(fastVotes, r.fastVote(peer, b1))
	}
	notar, err := types.NewCertificate(types.CertNotarization, 1, b1.ID(), notarVotes)
	if err != nil {
		t.Fatal(err)
	}
	unlock := &types.UnlockProof{
		Round: 1, Block: b1.ID(),
		Entries: []types.UnlockEntry{{
			Header: b1.Header(),
			Voters: []types.ReplicaID{0, 1, 2},
			Sigs:   [][]byte{fastVotes[0].Signature, fastVotes[1].Signature, fastVotes[2].Signature},
		}},
	}

	// Round-2 block arrives BEFORE the observer knows anything about b1:
	// it must stay pending (not valid).
	b2 := r.leaderBlock(2, b1.ID(), 2)
	r.deliver(b2.Proposer, &types.Proposal{Block: b2})
	rs2 := r.eng.getRound(2)
	if rs2.peek(b2.ID()).valid {
		t.Fatal("block with unknown parent credentials validated")
	}

	// Delivering the parent's credentials validates the pending block.
	r.deliver(b2.Proposer, &types.Proposal{
		Block:              b2,
		ParentNotarization: notar,
		ParentUnlock:       unlock,
		FastVote:           r.proposalFor(b2).FastVote,
		Relayed:            true,
	})
	if !rs2.peek(b2.ID()).valid {
		t.Fatal("block not validated after parent credentials arrived")
	}
}

// TestReceiverParksBareLeaderProposal: a rank-0 body sent without its
// proposer's fast vote — which a Byzantine leader can do — is unvoteable
// (Addition 2) until that vote arrives: the receiver parks it, and the
// proposer's fast vote alone makes it valid.
func TestReceiverParksBareLeaderProposal(t *testing.T) {
	set := genesisSet(t, p411)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, p411, observer)

	a := r.leaderBlock(1, types.Genesis().ID(), 'a')
	r.deliver(a.Proposer, r.proposalFor(a))
	r.clearActs()

	// Round 2's block arrives bare while round 1 is still open.
	leader2 := set.ReplicaAt(2, 0)
	b := types.NewBlock(2, leader2, 0, a.ID(), types.BytesPayload([]byte{'b'}))
	if err := r.signers[leader2].SignBlock(b); err != nil {
		t.Fatal(err)
	}
	r.deliver(leader2, &types.Proposal{Block: b})
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		for _, v := range vm.Votes {
			if v.Block == b.ID() {
				t.Fatalf("voted %v for a bare rank-0 block", v.Kind)
			}
		}
	}
	// The block may sit in the ancestry tree, but it must not be VALID —
	// validity is what gates every vote kind.
	if rs := r.eng.rounds[2]; rs != nil && rs.peek(b.ID()).valid {
		t.Fatal("bare rank-0 block marked valid")
	}

	// Certify round 1, then deliver the proposer's fast vote: the parked
	// block becomes valid and this replica fast-votes it.
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
		t.Fatal("parked block not fast-voted once its proposer's fast vote arrived")
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

// TestLeaderNeverBroadcastsBareProposal: the round-2 leader proposes
// only once round 1 certifies, and its rank-0 proposal carries its fast
// vote; the engine never emits a credential-less one.
func TestLeaderNeverBroadcastsBareProposal(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(2, 0))
	a := r.leaderBlock(1, types.Genesis().ID(), 'a')
	r.deliver(a.Proposer, r.proposalFor(a))
	if props := ownRound2Proposals(r); len(props) != 0 {
		t.Fatalf("%d round-2 proposals before round 1 certified", len(props))
	}
	peer1, peer2 := set.ReplicaAt(1, 2), set.ReplicaAt(1, 3)
	r.deliver(peer1, &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer1, a)}})
	r.deliver(peer2, &types.VoteMsg{Votes: []types.Vote{r.fastVote(peer2, a)}})
	if r.eng.Round() != 2 {
		t.Fatalf("round = %d, want 2", r.eng.Round())
	}
	if props := ownRound2Proposals(r); len(props) != 1 || props[0].FastVote == nil {
		t.Fatalf("round-2 proposals %v, want one carrying its fast vote", props)
	}
	if len(bareProposals(r)) != 0 {
		t.Fatal("a bare rank-0 proposal was broadcast")
	}
}

// TestRejectsBadMessages: wrong rank claims, bad signatures and foreign
// votes are rejected and counted.
func TestRejectsBadMessages(t *testing.T) {
	set := genesisSet(t, p411)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, p411, observer)

	// Wrong rank claim.
	leader := set.Leader(1)
	bad := types.NewBlock(1, leader, 2 /* lies about rank */, types.Genesis().ID(), types.Payload{})
	if err := r.signers[leader].SignBlock(bad); err != nil {
		t.Fatal(err)
	}
	r.deliver(leader, &types.Proposal{Block: bad})

	// Bad block signature.
	forged := r.leaderBlock(1, types.Genesis().ID(), 9)
	forged.Signature = []byte("nope")
	r.deliver(leader, &types.Proposal{Block: forged})

	// Vote signed by the wrong key.
	good := r.leaderBlock(1, types.Genesis().ID(), 1)
	v := r.fastVote(1, good)
	v.Voter = 2
	r.deliver(2, &types.VoteMsg{Votes: []types.Vote{v}})

	if got := r.eng.Metrics()["rejected"]; got != 3 {
		t.Fatalf("rejected = %d, want 3", got)
	}
}

// TestIndirectFinalizationViaCertificate: receiving a finalization
// certificate finalizes without local votes.
func TestIndirectFinalizationViaCertificate(t *testing.T) {
	set := genesisSet(t, p411)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, p411, observer)
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b.Proposer, r.proposalFor(b))

	var votes []types.Vote
	for _, peer := range []types.ReplicaID{0, 1, 2} {
		votes = append(votes, r.finalVote(peer, b))
	}
	cert, err := types.NewCertificate(types.CertFinalization, 1, b.ID(), votes)
	if err != nil {
		t.Fatal(err)
	}
	r.clearActs()
	r.deliver(0, &types.CertMsg{Cert: cert})
	commits := r.commits()
	if len(commits) != 1 || commits[0].Explicit != protocol.FinalizeIndirect {
		t.Fatalf("commits = %v", commits)
	}
	// Indirect finalizations are not re-broadcast.
	if n := len(broadcasts[*types.CertMsg](r)); n != 0 {
		t.Fatalf("re-broadcast %d certificates", n)
	}
}

// TestDisableFastPath: the ablated engine sends no fast votes and
// finalizes via the slow path only.
func TestDisableFastPath(t *testing.T) {
	set := genesisSet(t, p411)
	leader := set.Leader(1)
	r := newRig(t, p411, leader, func(c *Config) { c.DisableFastPath = true })
	props := broadcasts[*types.Proposal](r)
	if len(props) != 1 || props[0].FastVote != nil {
		t.Fatalf("nofast proposal %v", props)
	}
	b := props[0].Block
	peer1, peer2 := set.ReplicaAt(1, 1), set.ReplicaAt(1, 2)
	r.deliver(peer1, &types.VoteMsg{Votes: []types.Vote{r.notarVote(peer1, b)}})
	r.deliver(peer2, &types.VoteMsg{Votes: []types.Vote{r.notarVote(peer2, b)}})
	if r.eng.Round() != 2 {
		t.Fatalf("round = %d, want 2 (nofast advances on notarization)", r.eng.Round())
	}
	r.deliver(peer1, &types.VoteMsg{Votes: []types.Vote{r.finalVote(peer1, b)}})
	r.deliver(peer2, &types.VoteMsg{Votes: []types.Vote{r.finalVote(peer2, b)}})
	commits := r.commits()
	if len(commits) != 1 || commits[0].Explicit != protocol.FinalizeSlow {
		t.Fatalf("commits %v", commits)
	}
	if m := r.eng.Metrics(); m["final_fast"] != 0 {
		t.Fatalf("fast path used despite being disabled: %v", m)
	}
}

// TestNoFinalizationVoteAfterDoubleNotarVote: a replica that notarization-
// voted two blocks must not send a finalization vote (line 51's N ⊆ {b}).
func TestNoFinalizationVoteAfterDoubleNotarVote(t *testing.T) {
	set := genesisSet(t, p411)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, p411, observer)
	genesis := types.Genesis().ID()
	a := r.leaderBlock(1, genesis, 1)
	bb := r.leaderBlock(1, genesis, 2) // equivocation at rank 0

	r.deliver(a.Proposer, r.proposalFor(a))
	r.deliver(bb.Proposer, r.proposalFor(bb))
	// The observer voted for both. Now give block a enough support to
	// notarize and unlock (peers at ranks 1 and 2; the observer holds
	// rank 3 and the leader rank 0).
	for _, rank := range []types.Rank{1, 2} {
		peer := set.ReplicaAt(1, rank)
		r.deliver(peer, &types.VoteMsg{Votes: []types.Vote{r.notarVote(peer, a), r.fastVote(peer, a)}})
	}
	if r.eng.Round() != 2 {
		t.Fatalf("round = %d, want 2", r.eng.Round())
	}
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		for _, v := range vm.Votes {
			if v.Kind == types.VoteFinalize {
				t.Fatal("finalization vote sent despite N ⊄ {b}")
			}
		}
	}
}

// TestRelayOnVote: voting for another replica's block relays it
// (Algorithm 1 line 35) — as a signed header with the proposer's fast
// vote, never the payload.
func TestRelayOnVote(t *testing.T) {
	set := genesisSet(t, p411)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, p411, observer)
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b.Proposer, r.proposalFor(b))
	var relayed int
	for _, p := range broadcasts[*types.Proposal](r) {
		if !p.Relayed {
			continue
		}
		relayed++
		if p.Block != nil || p.Header == nil {
			t.Fatalf("relay carries a body: %#v", p)
		}
		if p.Header.ID() != b.ID() || string(p.Header.Signature) != string(b.Signature) {
			t.Fatal("relayed header does not re-hash to the block it relays")
		}
		if p.FastVote == nil || p.FastVote.Voter != b.Proposer {
			t.Fatal("rank-0 relay lost the proposer's fast vote")
		}
		if types.WireSize(p) > 400 {
			t.Fatalf("header relay is %d bytes on the wire", types.WireSize(p))
		}
	}
	if relayed != 1 || r.eng.Metrics()["relays"] != 1 {
		t.Fatalf("block relayed %d times (relays=%d), want 1", relayed, r.eng.Metrics()["relays"])
	}
}

// TestStaleMessagesIgnored: messages for long-finalized rounds do not
// disturb the engine or allocate state, and after every round the engine
// holds no round state more than PruneKeep rounds below its finalized
// height — rounds are retired as finalization passes them — and no tree
// block more than 2×PruneKeep rounds below it: the tree is pruned every
// PruneKeep finalized rounds, down to fin − PruneKeep.
func TestStaleMessagesIgnored(t *testing.T) {
	const keep = 2
	set := genesisSet(t, p411)
	leader := set.Leader(1)
	r := newRig(t, p411, leader, func(c *Config) { c.PruneKeep = keep; c.DeepPrune = true })
	retained := func(round types.Round) {
		fin := r.eng.Tree().FinalizedRound()
		if fin <= 2*keep {
			return
		}
		low := fin - 2*keep
		for held := range r.eng.rounds {
			if held < fin-keep {
				t.Fatalf("round %d: holds state for round %d, finalized %d", round, held, fin)
			}
		}
		for held := types.Round(1); held < low; held++ {
			if ids := r.eng.Tree().AtRound(held); len(ids) > 0 {
				t.Fatalf("round %d: tree holds %d blocks of round %d, finalized %d", round, len(ids), held, fin)
			}
		}
	}
	// Drive 40 fast rounds: whichever replica leads, fabricate its block
	// (when it is a peer) and the peers' votes; the engine's own votes
	// complete the quorums.
	parent := types.Genesis().ID()
	for round := types.Round(1); round <= 40; round++ {
		roundLeader := r.set.Leader(round)
		var b *types.Block
		if roundLeader == r.eng.ID() {
			rs := r.eng.getRound(round)
			for _, r := range rs.byID {
				if r.block != nil {
					b = r.block
				}
			}
			if b == nil {
				t.Fatalf("round %d: engine leads but proposed nothing", round)
			}
		} else {
			b = r.leaderBlock(round, parent, byte(round))
			r.deliver(roundLeader, r.proposalFor(b))
		}
		for peer := types.ReplicaID(0); int(peer) < r.params.N; peer++ {
			if peer == r.eng.ID() || peer == roundLeader {
				continue
			}
			r.deliver(peer, &types.VoteMsg{Votes: []types.Vote{
				r.fastVote(peer, b), r.notarVote(peer, b),
			}})
		}
		parent = b.ID()
		retained(round)
	}
	if r.eng.Tree().FinalizedRound() < 30 {
		t.Fatalf("only finalized %d rounds", r.eng.Tree().FinalizedRound())
	}
	// Old-round messages are dropped without effect.
	old := r.leaderBlock(1, types.Genesis().ID(), 99)
	before := len(r.eng.rounds)
	r.deliver(old.Proposer, r.proposalFor(old))
	if len(r.eng.rounds) > before {
		t.Fatal("stale message allocated round state")
	}
	// Pruning kept the rounds map bounded.
	if len(r.eng.rounds) > 16 {
		t.Fatalf("rounds map grew to %d entries", len(r.eng.rounds))
	}
}
