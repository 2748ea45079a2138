package core

import (
	"testing"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Settled rounds (engine.go: settled) and the conditional finalization
// vote of Algorithm 2 line 51.

// verifierLookups is the number of signatures the engine has put to its
// verifier so far: every one is a cache lookup, hit or miss.
func verifierLookups(r *rig) int64 {
	hits, misses := r.eng.cfg.Verifier.CacheStats()
	return hits + misses
}

// votesHeld counts the votes of one kind a round holds, over all blocks.
func (rs *roundState) votesHeld(kind types.VoteKind) (n int) {
	for _, r := range rs.byID {
		n += r.set(kind).count()
	}
	return n
}

// ledgerSizes counts what one round's state holds, so a test can assert
// that late traffic changed none of it.
func ledgerSizes(rs *roundState) (n int) {
	for _, kind := range []types.VoteKind{types.VoteNotarize, types.VoteFast, types.VoteFinalize} {
		n += rs.votesHeld(kind)
	}
	for _, r := range rs.byID {
		if r.notarization != nil {
			n++
		}
		if r.unlocked {
			n++
		}
		if r.block != nil {
			n++
		}
	}
	return n
}

// peek returns a copy of a block's record, the zero record when the round
// holds nothing for the ID.
func (rs *roundState) peek(id types.BlockID) blockState {
	if r := rs.rec(id); r != nil {
		return *r
	}
	return blockState{}
}

// fastFinalizeRound1 drives an n=4 replica through round 1 on the fast
// path — the proposal with its leader's fast vote, the replica's own, one
// peer's — and returns the block and the two non-leader peers, the first
// of which voted. The other's votes are left for the test to deliver late.
func fastFinalizeRound1(t *testing.T, r *rig) (*types.Block, []types.ReplicaID) {
	t.Helper()
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b.Proposer, r.proposalFor(b))
	var voters []types.ReplicaID
	for i := 0; i < r.params.N && len(voters) < 2; i++ {
		if id := types.ReplicaID(i); id != r.eng.ID() && id != b.Proposer {
			voters = append(voters, id)
		}
	}
	r.deliver(voters[0], &types.VoteMsg{Votes: []types.Vote{r.fastVote(voters[0], b)}})
	if r.eng.Round() != 2 || r.eng.Tree().FinalizedRound() != 1 {
		t.Fatalf("round %d, finalized %d after a fast-path round 1", r.eng.Round(), r.eng.Tree().FinalizedRound())
	}
	return b, voters
}

// round1Advance is the Advance for block b of round 1 that a peer leaving
// the round on its notarization sends, built from the votes r holds. A
// replica that leaves through the fast certificate sends none.
func round1Advance(r *rig, b *types.Block) *types.Advance {
	rs := r.eng.rounds[1]
	return &types.Advance{
		Notarization: rs.certificate(types.CertNotarization, 1, b.ID()),
		Unlock:       rs.buildUnlockProof(1, b.ID(), r.params.UnlockThreshold()),
	}
}

// TestSettledRoundIgnoresLateTraffic: once round 1 is finalized and left,
// late votes of every kind, an Advance, finalization and notarization
// certificates, and the round-1 credentials a round-2 proposal or a
// round-1 header relay carries change no ledger and reach no verifier —
// even with garbage signatures nothing is rejected, because nothing is
// looked at.
func TestSettledRoundIgnoresLateTraffic(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(1, 3)
	r := newRig(t, p411, self)
	b, voters := fastFinalizeRound1(t, r)
	late := voters[1]

	certs := broadcasts[*types.CertMsg](r)
	if n := len(broadcasts[*types.Advance](r)); n != 0 || len(certs) != 1 {
		t.Fatalf("round 1 produced %d Advance and %d CertMsg broadcasts, want 0 and 1", n, len(certs))
	}
	adv := []*types.Advance{round1Advance(r, b)}
	rs1 := r.eng.rounds[1]
	sizeBefore, lookupsBefore := ledgerSizes(rs1), verifierLookups(r)
	before := r.eng.Metrics()

	garbage := func(v types.Vote) types.Vote {
		v.Signature = []byte("not a signature")
		return v
	}
	r.clearActs()
	// Three late votes, honestly signed, then the same three forged.
	r.deliver(late, &types.VoteMsg{Votes: []types.Vote{
		r.notarVote(late, b), r.fastVote(late, b), r.finalVote(late, b),
	}})
	r.deliver(late, &types.VoteMsg{Votes: []types.Vote{
		garbage(r.notarVote(late, b)), garbage(r.fastVote(late, b)), garbage(r.finalVote(late, b)),
	}})
	// A peer's Advance and finalization certificate for the round: this
	// replica's own certificate is the same object a peer would have sent.
	r.deliver(late, adv[0])
	r.deliver(late, certs[0])
	r.deliver(late, &types.CertMsg{Cert: adv[0].Notarization})
	// A forged slow-path certificate for a different block of the round.
	r.deliver(late, &types.CertMsg{Cert: &types.Certificate{
		Kind: types.CertFinalization, Round: 1, Block: types.BlockID{9},
		Signers: []types.ReplicaID{0, 1, 2}, Sigs: [][]byte{{1}, {2}, {3}},
	}})
	// The round's header relay, with the proposer's fast vote and (for the
	// sake of the check) round-1 credentials attached.
	fv := r.fastVote(b.Proposer, b)
	r.deliver(late, &types.Proposal{
		Header: b.SignedHeader(), Relayed: true, FastVote: &fv,
		ParentNotarization: adv[0].Notarization, ParentUnlock: adv[0].Unlock,
	})

	// And one nothing about which is right — unsigned, wrong epoch, rank
	// and proposer: a relay for a settled round goes before its header is
	// hashed or checked, credentials and all.
	bogus := b.SignedHeader().BlockHeader
	bogus.Epoch, bogus.Rank, bogus.Proposer = 9, 3, late
	r.deliver(late, &types.Proposal{
		Header:  &types.SignedHeader{BlockHeader: bogus, Signature: []byte("not a signature")},
		Relayed: true, FastVote: &fv,
	})

	const dropped = 3 + 3 + 2 + 1 + 1 + 1 + 1 + 1 // a header relay goes whole
	after := r.eng.Metrics()
	if got := after["settled_dropped"] - before["settled_dropped"]; got != dropped {
		t.Errorf("settled_dropped grew by %d, want %d", got, dropped)
	}
	if after["rejected"] != before["rejected"] {
		t.Errorf("rejected grew by %d: settled garbage was looked at", after["rejected"]-before["rejected"])
	}
	if got := verifierLookups(r); got != lookupsBefore {
		t.Errorf("%d signatures reached the verifier for a settled round", got-lookupsBefore)
	}
	if got := ledgerSizes(rs1); got != sizeBefore {
		t.Errorf("round-1 state grew from %d to %d entries", sizeBefore, got)
	}
	if r.eng.extFinal[1] != nil {
		t.Error("a certificate for a settled round was parked in extFinal")
	}
	if len(r.acts) != 0 {
		t.Errorf("settled traffic produced actions: %v", r.acts)
	}

	// A round-2 proposal carrying round 1's credentials: the block and its
	// proposer's fast vote are verified, the credentials are not.
	b2 := r.leaderBlock(2, b.ID(), 2)
	p2 := r.proposalFor(b2)
	p2.ParentNotarization, p2.ParentUnlock = adv[0].Notarization, adv[0].Unlock
	lookupsBefore = verifierLookups(r)
	r.deliver(b2.Proposer, p2)
	if got := verifierLookups(r) - lookupsBefore; got != 2 {
		t.Errorf("a round-2 proposal cost %d signature lookups, want 2 (block, fast vote)", got)
	}
	if got := ledgerSizes(rs1); got != sizeBefore {
		t.Errorf("round-2 proposal's parent credentials changed round-1 state (%d -> %d)", sizeBefore, got)
	}
	if len(broadcasts[*types.VoteMsg](r)) != 1 {
		t.Error("round-2 block extending the finalized parent was not voted for")
	}
}

// TestFinalizedButNotLeftStillAbsorbs: a finalization certificate that
// arrives before the block it names leaves the round finalized but not
// left — the chain cannot commit through a body the replica lacks, and the
// replica has not voted. The round is not settled, and when the body lands
// the replica votes, commits, and leaves through the finalized block
// without a finalization vote.
//   - slow: a certificate of finalization votes proves no notarization. The
//     notarization and unlock proof of a peer's later Advance are absorbed,
//     and the replica leaves on them with an Advance of its own.
//   - fast: the fast-finalization certificate is the block's notarization
//     and unlock at once. A later Advance is looked at rather than dropped
//     but displaces nothing, and the replica leaves without an Advance.
func TestFinalizedButNotLeftStillAbsorbs(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(1, 3)

	// A donor replica runs the round to produce a genuine fast certificate,
	// notarization and unlock proof.
	donor := newRig(t, p411, set.ReplicaAt(1, 2))
	b, _ := fastFinalizeRound1(t, donor)
	fastCert := broadcasts[*types.CertMsg](donor)[0]
	adv := round1Advance(donor, b)
	var finalVotes []types.Vote
	for _, peer := range []types.ReplicaID{0, 1, 2} {
		finalVotes = append(finalVotes, donor.finalVote(peer, b))
	}
	slowCert, err := types.NewCertificate(types.CertFinalization, 1, b.ID(), finalVotes)
	if err != nil {
		t.Fatal(err)
	}

	// finalizedNotLeft delivers cert to a fresh replica and checks the round
	// is finalized but neither committed nor left.
	finalizedNotLeft := func(t *testing.T, cert *types.Certificate) (*rig, *roundState) {
		t.Helper()
		r := newRig(t, p411, self)
		r.deliver(donor.eng.ID(), &types.CertMsg{Cert: cert})
		rs := r.eng.rounds[1]
		if !rs.finalized || r.eng.Tree().FinalizedRound() != 0 || r.eng.Round() != 1 {
			t.Fatalf("after a certificate without a body: finalized=%v tree=%d round=%d",
				rs.finalized, r.eng.Tree().FinalizedRound(), r.eng.Round())
		}
		return r, rs
	}
	// bodyLands delivers the block and checks the replica commits and leaves
	// with the given Advance counts and no finalization vote.
	bodyLands := func(t *testing.T, r *rig, advances, skipped int64) {
		t.Helper()
		if m := r.eng.Metrics(); m["settled_dropped"] != 0 || m["rejected"] != 0 {
			t.Fatalf("settled_dropped = %d, rejected = %d before anything was settled", m["settled_dropped"], m["rejected"])
		}
		r.deliver(b.Proposer, r.proposalFor(b))
		if r.eng.Round() != 2 || len(r.commits()) != 1 {
			t.Fatalf("round %d, %d commits after the body landed", r.eng.Round(), len(r.commits()))
		}
		m := r.eng.Metrics()
		if m["advances"] != advances || m["advances_skipped"] != skipped || m["final_votes_suppressed"] != 1 {
			t.Errorf("advances=%d advances_skipped=%d final_votes_suppressed=%d, want %d, %d and 1",
				m["advances"], m["advances_skipped"], m["final_votes_suppressed"], advances, skipped)
		}
		if n := len(broadcasts[*types.Advance](r)); int64(n) != advances {
			t.Errorf("%d Advance broadcasts, want %d", n, advances)
		}
		if n := finalizeVotesSent(r); n != 0 {
			t.Errorf("%d finalization votes sent for a round finalized before the replica left it", n)
		}
	}

	t.Run("slow", func(t *testing.T) {
		r, rs := finalizedNotLeft(t, slowCert)
		// isUnlocked holds for a finalized block by definition; the record's
		// flag says whether a credential unlocked it.
		if rs.notarization(b.ID()) != nil || rs.peek(b.ID()).unlocked {
			t.Fatal("a certificate of finalization votes notarized or unlocked the block")
		}
		r.deliver(donor.eng.ID(), adv)
		if rs.notarization(b.ID()) != adv.Notarization {
			t.Fatal("notarization for a finalized round the replica has not left was dropped")
		}
		if !rs.isUnlocked(b.ID()) {
			t.Fatal("finalized block not unlocked")
		}
		// The replica's own two votes and the proposer's are short of a
		// notarization quorum: it leaves on the absorbed certificate, and
		// its Advance carries it.
		bodyLands(t, r, 1, 0)
		if sent := broadcasts[*types.Advance](r); len(sent) != 1 || sent[0].Notarization != adv.Notarization {
			t.Error("the replica's Advance does not carry the absorbed notarization")
		}
	})

	t.Run("fast", func(t *testing.T) {
		r, rs := finalizedNotLeft(t, fastCert.Cert)
		if rs.notarization(b.ID()) != fastCert.Cert || !rs.peek(b.ID()).unlocked {
			t.Fatal("the fast certificate did not become the block's notarization and unlock")
		}
		r.deliver(donor.eng.ID(), adv)
		if rs.notarization(b.ID()) != fastCert.Cert || !rs.peek(b.ID()).unlocked {
			t.Fatal("a later Advance displaced the fast certificate")
		}
		bodyLands(t, r, 0, 1)
	})
}

func finalizeVotesSent(r *rig) (n int) {
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		for _, v := range vm.Votes {
			if v.Kind == types.VoteFinalize {
				n++
			}
		}
	}
	return n
}

// TestFastPathRoundSendsNoFinalizationVote: at n=4 the vote message that
// completes the notarization also completes the fast quorum, so the round
// is finalized when the replica advances. The certificate goes out; the
// finalization vote is neither signed nor sent, and votes_sent counts the
// one VoteMsg of the round.
func TestFastPathRoundSendsNoFinalizationVote(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(1, 3))
	fastFinalizeRound1(t, r)
	if n := finalizeVotesSent(r); n != 0 {
		t.Fatalf("%d finalization votes sent on the fast path", n)
	}
	if r.eng.rounds[1].finalVoted || r.eng.rounds[1].votesHeld(types.VoteFinalize) != 0 {
		t.Fatal("finalization vote recorded though none was sent")
	}
	if n := len(broadcasts[*types.CertMsg](r)); n != 1 {
		t.Fatalf("%d certificates broadcast, want the fast finalization", n)
	}
	m := r.eng.Metrics()
	if m["final_votes_suppressed"] != 1 || m["votes_sent"] != 1 || m["final_fast"] != 1 {
		t.Fatalf("final_votes_suppressed=%d votes_sent=%d final_fast=%d, want 1, 1, 1",
			m["final_votes_suppressed"], m["votes_sent"], m["final_fast"])
	}
}

// TestSlowPathRoundsStillSendFinalizationVotes: wherever the replica
// advances before the round is finalized, line 51 is untouched — a
// crashed-leader (rank-1) round at n=4, and ordinary rank-0 rounds at
// n=7 and n=19, where the notarization quorum is smaller than the fast
// quorum. Each then SP-finalizes on a quorum of finalization votes.
func TestSlowPathRoundsStillSendFinalizationVotes(t *testing.T) {
	cases := []struct {
		name   string
		params types.Params
		rank   types.Rank
	}{
		{"n4-crashed-leader", p411, 1},
		{"n7", types.Params{N: 7, F: 2, P: 1}, 0},
		{"n19", types.Params{N: 19, F: 6, P: 1}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := genesisSet(t, tc.params)
			self := set.ReplicaAt(1, types.Rank(tc.params.N-1))
			r := newRig(t, tc.params, self)
			var b *types.Block
			if tc.rank == 0 {
				b = r.leaderBlock(1, types.Genesis().ID(), 1)
				r.deliver(b.Proposer, r.proposalFor(b))
			} else {
				b = r.rankedBlock(1, tc.rank, types.Genesis().ID(), 1)
				r.deliver(b.Proposer, &types.Proposal{Block: b})
				r.tick(2 * rigDelta * 2) // past the rank-1 notarization delay
			}
			// Peers' vote pairs, up to the notarization quorum (own vote
			// included): enough fast votes to unlock, too few to finalize.
			need := tc.params.NotarizationQuorum() - 1
			var peers []types.ReplicaID
			for i := 0; i < tc.params.N && len(peers) < need; i++ {
				if id := types.ReplicaID(i); id != self {
					peers = append(peers, id)
				}
			}
			for _, p := range peers {
				r.deliver(p, &types.VoteMsg{Votes: []types.Vote{r.notarVote(p, b), r.fastVote(p, b)}})
			}
			if r.eng.Round() != 2 {
				t.Fatalf("round = %d after a notarization quorum, want 2", r.eng.Round())
			}
			m := r.eng.Metrics()
			if finalizeVotesSent(r) != 1 || m["final_votes_suppressed"] != 0 || m["final_fast"] != 0 {
				t.Fatalf("finalization votes sent=%d suppressed=%d final_fast=%d, want 1, 0, 0",
					finalizeVotesSent(r), m["final_votes_suppressed"], m["final_fast"])
			}
			for _, p := range peers[:tc.params.FinalizationQuorum()-1] {
				r.deliver(p, &types.VoteMsg{Votes: []types.Vote{r.finalVote(p, b)}})
			}
			commits := r.commits()
			if len(commits) != 1 || commits[0].Explicit != protocol.FinalizeSlow {
				t.Fatalf("commits after a finalization-vote quorum: %v", commits)
			}
		})
	}
}

// TestSettledFloorFollowsTheEngine: the floor the engine publishes to its
// verifier is the highest round both finalized and left. The verifier's
// cache shows it: it admits a signature above the floor, so a second check
// is a hit, and keeps none at or below it, so a second check misses again.
func TestSettledFloorFollowsTheEngine(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(1, 3))
	v := r.eng.cfg.Verifier
	fresh := byte(0xe0)
	admitted := func(round types.Round) bool {
		t.Helper()
		fresh++
		vt := r.signers[0].SignVote(types.VoteNotarize, round, types.BlockID{fresh})
		_, before := v.CacheStats()
		for i := 0; i < 2; i++ {
			if err := v.VerifyVote(vt); err != nil {
				t.Fatal(err)
			}
		}
		_, after := v.CacheStats()
		return after-before == 1
	}
	if !admitted(1) {
		t.Fatal("round 1 settled before anything finalized")
	}
	fastFinalizeRound1(t, r)
	if admitted(1) {
		t.Fatal("round 1 not settled after it finalized and was left")
	}
	if !admitted(2) {
		t.Fatal("round 2 settled while the engine is in it")
	}
}
