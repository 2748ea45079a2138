package icc

import (
	"testing"
	"time"

	"banyan/internal/crypto"
	"banyan/internal/membership"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

type rig struct {
	t       *testing.T
	keyring *crypto.Keyring
	signers []*crypto.Signer
	set     *membership.ValidatorSet
	eng     *Engine
	now     time.Time
	acts    []protocol.Action
}

const (
	rigDelta = 10 * time.Millisecond
	rigSeed  = 7
)

// genesisSet is the validator set a rig over params runs on; tests pick
// the replica a rig plays from its schedule.
func genesisSet(t *testing.T, params types.Params) *membership.ValidatorSet {
	t.Helper()
	keyring, _ := crypto.GenerateCluster(crypto.HMAC(), params.N, rigSeed)
	set, err := membership.Genesis(keyring, params)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func newRig(t *testing.T, set *membership.ValidatorSet, self types.ReplicaID) *rig {
	t.Helper()
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), set.Size(), rigSeed)
	eng, err := New(Config{
		Set:     set,
		Self:    self,
		Keyring: keyring,
		Signer:  signers[self],
		Delta:   rigDelta,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{
		t: t, keyring: keyring, signers: signers,
		set: set, eng: eng, now: time.Unix(0, 0),
	}
	r.acts = eng.Start(r.now)
	return r
}

func (r *rig) deliver(from types.ReplicaID, msg types.Message) {
	r.t.Helper()
	r.acts = append(r.acts, r.eng.HandleMessage(from, msg, r.now)...)
}

func (r *rig) leaderBlock(round types.Round, parent types.BlockID, tag byte) *types.Block {
	r.t.Helper()
	leader := r.set.Leader(round)
	b := types.NewBlock(round, leader, 0, parent, types.BytesPayload([]byte{tag}))
	if err := r.signers[leader].SignBlock(b); err != nil {
		r.t.Fatal(err)
	}
	return b
}

func (r *rig) vote(kind types.VoteKind, voter types.ReplicaID, b *types.Block) types.Vote {
	return r.signers[voter].SignVote(kind, b.Round, b.ID())
}

func (r *rig) commits() []protocol.Commit {
	var out []protocol.Commit
	for _, a := range r.acts {
		if c, ok := a.(protocol.Commit); ok {
			out = append(out, c)
		}
	}
	return out
}

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

var p41 = types.Params{N: 4, F: 1}

// TestFigure3Walkthrough replays Figure 3's scripted round (n=4, f=1) at
// one replica and asserts the event order the figure shows: NV broadcast
// on the rank-0 proposal, notarization N after n-f NVs, finalization vote
// FV on round advance, and finalization F + output after n-f FVs.
func TestFigure3Walkthrough(t *testing.T) {
	set := genesisSet(t, p41)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, set, observer)

	// Step 1: the rank-0 block of round k arrives; the replica sends a
	// notarization vote (NV).
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b.Proposer, &types.Proposal{Block: b})
	var nvs int
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		for _, v := range vm.Votes {
			if v.Kind == types.VoteNotarize && v.Block == b.ID() {
				nvs++
			}
		}
	}
	if nvs != 1 {
		t.Fatalf("NV broadcast %d times, want 1", nvs)
	}
	if r.eng.Round() != 1 {
		t.Fatal("advanced before notarization")
	}

	// Step 2: two more NVs arrive; with the replica's own that is
	// n-f = 3 -> the block is notarized (N), the replica advances and
	// broadcasts a finalization vote (FV) since it voted only for b.
	peer1, peer2 := set.ReplicaAt(1, 1), set.ReplicaAt(1, 2)
	r.deliver(peer1, &types.VoteMsg{Votes: []types.Vote{r.vote(types.VoteNotarize, peer1, b)}})
	if r.eng.Round() != 1 {
		t.Fatal("advanced with only 2 notarization votes")
	}
	r.clearActs()
	r.deliver(peer2, &types.VoteMsg{Votes: []types.Vote{r.vote(types.VoteNotarize, peer2, b)}})
	if r.eng.Round() != 2 {
		t.Fatalf("round = %d after notarization, want 2", r.eng.Round())
	}
	advs := broadcasts[*types.Advance](r)
	if len(advs) != 1 || advs[0].Notarization == nil || advs[0].Notarization.Block != b.ID() {
		t.Fatalf("notarization broadcast missing: %v", advs)
	}
	var fvs int
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		for _, v := range vm.Votes {
			if v.Kind == types.VoteFinalize && v.Block == b.ID() {
				fvs++
			}
		}
	}
	if fvs != 1 {
		t.Fatalf("FV broadcast %d times, want 1", fvs)
	}
	if len(r.commits()) != 0 {
		t.Fatal("committed before finalization quorum")
	}

	// Step 3: two more FVs arrive; with the replica's own that is n-f ->
	// finalization (F), the block commits and the certificate is
	// broadcast.
	r.clearActs()
	r.deliver(peer1, &types.VoteMsg{Votes: []types.Vote{r.vote(types.VoteFinalize, peer1, b)}})
	r.deliver(peer2, &types.VoteMsg{Votes: []types.Vote{r.vote(types.VoteFinalize, peer2, b)}})
	commits := r.commits()
	if len(commits) != 1 || commits[0].Explicit != protocol.FinalizeSlow {
		t.Fatalf("commits = %v", commits)
	}
	if len(commits[0].Blocks) != 1 || !commits[0].Blocks[0].Equal(b) {
		t.Fatal("wrong chain committed")
	}
	var finals int
	for _, c := range broadcasts[*types.CertMsg](r) {
		if c.Cert.Kind == types.CertFinalization && c.Cert.Block == b.ID() {
			finals++
		}
	}
	if finals != 1 {
		t.Fatalf("finalization broadcast %d times, want 1", finals)
	}
}

func (r *rig) clearActs() { r.acts = nil }

// TestImplicitFinalization: rounds without explicit finalization are
// implicitly finalized by a later round's explicit finalization.
func TestImplicitFinalization(t *testing.T) {
	set := genesisSet(t, p41)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, set, observer)
	genesis := types.Genesis().ID()

	// Round 1 notarizes (the replica advances) but nobody finalizes it.
	b1 := r.leaderBlock(1, genesis, 1)
	r.deliver(b1.Proposer, &types.Proposal{Block: b1})
	for _, rank := range []types.Rank{1, 2} {
		peer := set.ReplicaAt(1, rank)
		r.deliver(peer, &types.VoteMsg{Votes: []types.Vote{r.vote(types.VoteNotarize, peer, b1)}})
	}
	if r.eng.Round() != 2 {
		t.Fatalf("round = %d, want 2", r.eng.Round())
	}

	// Round 2 block extends b1; it notarizes and SP-finalizes.
	b2 := r.leaderBlock(2, b1.ID(), 2)
	r.deliver(b2.Proposer, &types.Proposal{Block: b2})
	for _, rank := range []types.Rank{1, 2} {
		peer := set.ReplicaAt(2, rank)
		if peer == r.eng.ID() {
			peer = set.ReplicaAt(2, 3)
		}
		r.deliver(peer, &types.VoteMsg{Votes: []types.Vote{r.vote(types.VoteNotarize, peer, b2)}})
	}
	r.clearActs()
	count := 0
	for peer := types.ReplicaID(0); int(peer) < 4 && count < 2; peer++ {
		if peer == r.eng.ID() {
			continue
		}
		r.deliver(peer, &types.VoteMsg{Votes: []types.Vote{r.vote(types.VoteFinalize, peer, b2)}})
		count++
	}
	commits := r.commits()
	if len(commits) != 1 {
		t.Fatalf("commits = %v", commits)
	}
	if len(commits[0].Blocks) != 2 {
		t.Fatalf("implicit finalization: committed %d blocks, want 2 (b1 then b2)", len(commits[0].Blocks))
	}
	if !commits[0].Blocks[0].Equal(b1) || !commits[0].Blocks[1].Equal(b2) {
		t.Fatal("chain order wrong")
	}
}

// TestICCIgnoresFastVotes: fast votes are a Banyan concept; the ICC engine
// must ignore them without counting rejections.
func TestICCIgnoresFastVotes(t *testing.T) {
	set := genesisSet(t, p41)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, set, observer)
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b.Proposer, &types.Proposal{Block: b})
	peer := set.ReplicaAt(1, 1)
	r.deliver(peer, &types.VoteMsg{Votes: []types.Vote{r.vote(types.VoteFast, peer, b)}})
	if got := r.eng.Metrics()["rejected"]; got != 0 {
		t.Fatalf("rejected = %d, want 0", got)
	}
	if r.eng.Round() != 1 {
		t.Fatal("fast votes must not advance an ICC round")
	}
}

// TestICCValidityGatesOnNotarizedParent: a round-2 block is pending until
// its parent is known notarized.
func TestICCValidityGatesOnNotarizedParent(t *testing.T) {
	set := genesisSet(t, p41)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, set, observer)
	b1 := r.leaderBlock(1, types.Genesis().ID(), 1)
	b2 := r.leaderBlock(2, b1.ID(), 2)
	r.deliver(b2.Proposer, &types.Proposal{Block: b2})
	if r.eng.getRound(2).valid[b2.ID()] {
		t.Fatal("round-2 block validated without parent notarization")
	}
	var votes []types.Vote
	for _, peer := range []types.ReplicaID{0, 1, 2} {
		votes = append(votes, r.vote(types.VoteNotarize, peer, b1))
	}
	cert, err := types.NewCertificate(types.CertNotarization, 1, b1.ID(), votes)
	if err != nil {
		t.Fatal(err)
	}
	r.deliver(b2.Proposer, &types.Proposal{Block: b2, ParentNotarization: cert, Relayed: true})
	if !r.eng.getRound(2).valid[b2.ID()] {
		t.Fatal("round-2 block not validated after parent notarization arrived")
	}
}
