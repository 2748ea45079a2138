package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"banyan/internal/crypto"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// One signature per vote: a fast vote is its voter's notarization vote
// for the same block (roundState.recordVote, Engine.castVote).

var clusterSizes = []types.Params{p411, {N: 7, F: 2, P: 1}, {N: 19, F: 6, P: 1}}

// peersOf lists every replica but self and the excluded ones, ascending.
func peersOf(r *rig, exclude ...types.ReplicaID) []types.ReplicaID {
	var out []types.ReplicaID
next:
	for i := 0; i < r.params.N; i++ {
		id := types.ReplicaID(i)
		if id == r.eng.ID() {
			continue
		}
		for _, x := range exclude {
			if id == x {
				continue next
			}
		}
		out = append(out, id)
	}
	return out
}

func fastVoteMsg(r *rig, voter types.ReplicaID, b *types.Block) *types.VoteMsg {
	return &types.VoteMsg{Votes: []types.Vote{r.fastVote(voter, b)}}
}

// voteKinds flattens the kinds of every vote the rig has broadcast.
func voteKinds(r *rig) (kinds []types.VoteKind) {
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		for _, v := range vm.Votes {
			kinds = append(kinds, v.Kind)
		}
	}
	return kinds
}

// TestFastVotesAloneNotarize: at n=4 a non-leader sees the proposal with
// its leader's fast vote, casts its own, and receives one peer's — three
// fast votes and not one notarization vote. The round notarizes,
// fast-finalizes and is left on three signature verifications (block,
// leader's vote, peer's vote). Its notarization is the fast-finalization
// certificate it broadcasts — no separate notarization certificate is
// formed — which verifies as a notarization quorum of fast signatures.
func TestFastVotesAloneNotarize(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(1, 3))
	b, _ := fastFinalizeRound1(t, r)
	if got := sigsVerified(r); got != 3 {
		t.Errorf("round 1 cost %d signature checks, want 3", got)
	}
	if got := voteKinds(r); len(got) != 1 || got[0] != types.VoteFast {
		t.Errorf("own votes %v, want one fast vote", got)
	}
	rs := r.eng.rounds[1]
	if n := rs.votesHeld(types.VoteNotarize); n != 0 {
		t.Errorf("%d bare notarization votes recorded", n)
	}
	certs := broadcasts[*types.CertMsg](r)
	if len(certs) != 1 {
		t.Fatalf("%d certificates broadcast, want the fast finalization alone", len(certs))
	}
	notar := certs[0].Cert
	if notar.Kind != types.CertFastFinalization || notar.Block != b.ID() || len(notar.Signers) != 3 {
		t.Fatalf("broadcast %v, want a 3-signer fast finalization of %s", notar, b.ID())
	}
	if rs.notarization(b.ID()) != notar {
		t.Fatalf("round 1 notarization %v, want the fast certificate", rs.notarization(b.ID()))
	}
	if err := crypto.VerifyCert(r.keyring, notar, p411.NotarizationQuorum()); err != nil {
		t.Fatalf("fast certificate does not verify as a notarization quorum: %v", err)
	}

	// A peer that saw none of the votes takes the certificate on its own,
	// as the block's notarization and unlock.
	peer := newRig(t, p411, set.ReplicaAt(1, 2))
	peer.deliver(b.Proposer, &types.Proposal{Block: b}) // no fast vote: not votable
	peer.deliver(r.eng.ID(), &types.CertMsg{Cert: notar})
	prs := peer.eng.rounds[1]
	if prs.notarization(b.ID()) != notar || !prs.peek(b.ID()).unlocked || peer.eng.Metrics()["rejected"] != 0 {
		t.Fatal("a peer did not take the fast certificate as the block's notarization and unlock")
	}
}

// TestLeaderVotesWithItsProposal: the leader's proposal-carried fast vote
// is its notarization vote. It signs twice (block, fast vote), puts its
// block in N at propose time and sends no VoteMsg of its own.
func TestLeaderVotesWithItsProposal(t *testing.T) {
	for _, params := range clusterSizes {
		t.Run(fmt.Sprintf("n%d", params.N), func(t *testing.T) {
			leader := genesisSet(t, params).Leader(1)
			r := newRig(t, params, leader)
			props := broadcasts[*types.Proposal](r)
			if len(props) != 1 || props[0].FastVote == nil {
				t.Fatalf("leader broadcast %v", props)
			}
			b := props[0].Block
			rs := r.eng.rounds[1]
			if !rs.peek(b.ID()).notarVoted || !rs.fastVoteSent || rs.notarSupport(b.ID()) != 1 {
				t.Fatalf("after proposing: N=%v fastVoteSent=%v support=%d",
					rs.peek(b.ID()).notarVoted, rs.fastVoteSent, rs.notarSupport(b.ID()))
			}
			// Peers' fast votes up to the notarization quorum.
			for _, p := range peersOf(r)[:params.NotarizationQuorum()-1] {
				r.deliver(p, fastVoteMsg(r, p, b))
			}
			if r.eng.Round() != 2 {
				t.Fatalf("leader in round %d after a notarization quorum of fast votes", r.eng.Round())
			}
			for _, k := range voteKinds(r) {
				if k != types.VoteFinalize {
					t.Errorf("leader broadcast a %s vote beside its proposal", k)
				}
			}
			wantVotes := int64(1) // the finalization vote, where the round is not yet finalized
			if params.NotarizationQuorum() >= params.FastQuorum() {
				wantVotes = 0
			}
			if got := r.eng.Metrics()["votes_sent"]; got != wantVotes {
				t.Errorf("votes_sent = %d, want %d", got, wantVotes)
			}
		})
	}
}

// TestRedundantVoteFormsCostNothing: the two-signature form still works
// and buys nothing. A bare notarization vote that follows its voter's
// fast vote is dropped unverified; one that precedes it is displaced, so
// a voter never counts twice and the certificate keeps the fast
// signature.
func TestRedundantVoteFormsCostNothing(t *testing.T) {
	params := types.Params{N: 7, F: 2, P: 1}
	set := genesisSet(t, params)
	r := newRig(t, params, set.ReplicaAt(1, 6))
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b.Proposer, r.proposalFor(b))
	rs := r.eng.rounds[1]
	peers := peersOf(r, b.Proposer)

	// Fast vote first, bare notarization vote (garbage, even) after.
	r.deliver(peers[0], fastVoteMsg(r, peers[0], b))
	before, support := sigsVerified(r), rs.notarSupport(b.ID())
	late := r.notarVote(peers[0], b)
	late.Signature = []byte("never looked at")
	r.deliver(peers[0], &types.VoteMsg{Votes: []types.Vote{late}})
	if sigsVerified(r) != before || rs.notarSupport(b.ID()) != support || r.eng.Metrics()["rejected"] != 0 {
		t.Fatal("a notarization vote after the same voter's fast vote was looked at")
	}
	// The leader's separate notarization vote of old is one of these.
	r.deliver(b.Proposer, &types.VoteMsg{Votes: []types.Vote{r.notarVote(b.Proposer, b)}})
	if sigsVerified(r) != before || rs.notarSupport(b.ID()) != support {
		t.Fatal("the leader's own notarization vote was looked at after its proposal's fast vote")
	}

	// Bare notarization vote first: counted; the fast vote replaces it.
	r.deliver(peers[1], &types.VoteMsg{Votes: []types.Vote{r.notarVote(peers[1], b)}})
	if rs.notarSupport(b.ID()) != support+1 || rs.set(types.VoteNotarize, b.ID()).count() != 1 {
		t.Fatalf("bare notarization vote: support %d, %d bare votes", rs.notarSupport(b.ID()), rs.votesHeld(types.VoteNotarize))
	}
	r.deliver(peers[1], fastVoteMsg(r, peers[1], b))
	if rs.notarSupport(b.ID()) != support+1 || rs.votesHeld(types.VoteNotarize) != 0 {
		t.Fatalf("fast vote after a bare one: support %d, %d bare votes", rs.notarSupport(b.ID()), rs.votesHeld(types.VoteNotarize))
	}
}

// TestMixedNotarization (n=7): two voters send bare notarization votes —
// a Byzantine voter, or one that spent its fast vote on another block —
// the rest fast votes. The quorum counts both, the certificate marks
// exactly the fast voters, and a replica that saw none of the votes
// accepts it.
func TestMixedNotarization(t *testing.T) {
	params := types.Params{N: 7, F: 2, P: 1}
	set := genesisSet(t, params)
	r := newRig(t, params, set.ReplicaAt(1, 6))
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b.Proposer, r.proposalFor(b))
	peers := peersOf(r, b.Proposer)
	bare := map[types.ReplicaID]bool{peers[0]: true, peers[1]: true}
	for _, p := range peers[:params.NotarizationQuorum()-2] {
		if bare[p] {
			r.deliver(p, &types.VoteMsg{Votes: []types.Vote{r.notarVote(p, b)}})
		} else {
			r.deliver(p, fastVoteMsg(r, p, b))
		}
	}
	notar := r.eng.rounds[1].notarization(b.ID())
	if notar == nil || len(notar.Signers) != params.NotarizationQuorum() {
		t.Fatalf("notarization %v, want %d signers", notar, params.NotarizationQuorum())
	}
	for i, s := range notar.Signers {
		if notar.FastSigned(i) == bare[s] {
			t.Errorf("signer %d: fast marker %v, sent a bare vote: %v", s, notar.FastSigned(i), bare[s])
		}
	}
	if r.eng.Round() != 1 {
		t.Fatal("left the round on fewer fast votes than unlock")
	}
	if err := crypto.VerifyCert(r.keyring, notar, params.NotarizationQuorum()); err != nil {
		t.Fatal(err)
	}
	peer := newRig(t, params, set.ReplicaAt(1, 5))
	peer.deliver(r.eng.ID(), &types.CertMsg{Cert: notar})
	if peer.eng.rounds[1].notarization(b.ID()) == nil {
		t.Fatal("a peer rejected the mixed notarization")
	}
	// The marker is part of what is verified: flipping one bit makes a
	// genuine signature cover the wrong digest.
	for _, flip := range []int{0, len(notar.Signers) - 1} {
		forged := *notar
		forged.Fast = append([]byte(nil), notar.Fast...)
		forged.Fast[flip/8] ^= 1 << (flip % 8)
		other := newRig(t, params, set.ReplicaAt(1, 5))
		other.deliver(r.eng.ID(), &types.CertMsg{Cert: &forged})
		if other.eng.rounds[1].notarization(b.ID()) != nil || other.eng.Metrics()["rejected"] != 1 {
			t.Errorf("notarization with signer %d's marker flipped was accepted", notar.Signers[flip])
		}
	}
}

// TestUnlockProofFeedsNotarization: fast votes that arrive inside an
// unlock proof — verified once, as part of the proof — count toward the
// notarization quorum like any others. The donor's notarization forms on
// two bare votes and three fast ones, f+p fast-marked signers, so it does
// not unlock itself; the fourth fast vote unlocks the block, and the
// donor's Advance carries the proof beside the notarization.
func TestUnlockProofFeedsNotarization(t *testing.T) {
	params := types.Params{N: 7, F: 2, P: 1}
	set := genesisSet(t, params)
	donor := newRig(t, params, set.ReplicaAt(1, 5))
	b := donor.leaderBlock(1, types.Genesis().ID(), 1)
	donor.deliver(b.Proposer, donor.proposalFor(b))
	peers := peersOf(donor, b.Proposer)
	for _, p := range peers[:2] {
		donor.deliver(p, &types.VoteMsg{Votes: []types.Vote{donor.notarVote(p, b)}})
	}
	donor.deliver(peers[2], fastVoteMsg(donor, peers[2], b))
	notar := donor.eng.rounds[1].notarization(b.ID())
	if notar == nil || unlocksItself(notar, genesisSet(t, params)) || donor.eng.Round() != 1 {
		t.Fatalf("donor's notarization %v, round %d: want one that does not unlock itself, still in round 1",
			notar, donor.eng.Round())
	}
	donor.deliver(peers[3], fastVoteMsg(donor, peers[3], b))
	adv := broadcasts[*types.Advance](donor)
	if len(adv) != 1 || adv[0].Unlock == nil || adv[0].Notarization != notar {
		t.Fatalf("donor broadcast %v, want one Advance with its notarization and an unlock proof", adv)
	}

	r := newRig(t, params, set.ReplicaAt(1, 6))
	r.deliver(b.Proposer, &types.Proposal{Block: b}) // body only: nothing to vote on yet
	r.deliver(donor.eng.ID(), &types.Advance{Unlock: adv[0].Unlock})
	rs := r.eng.rounds[1]
	if got, want := rs.notarSupport(b.ID()), adv[0].Unlock.VoteCount(); got < want {
		t.Fatalf("notarization support %d after absorbing a proof of %d fast votes", got, want)
	}
	if rs.notarization(b.ID()) == nil {
		t.Fatal("no notarization formed from the proof's fast votes")
	}
}

// TestCrashedLeaderRoundFirstVoteIsFast: with the leader silent, the
// rank-1 block is the first block of the round every replica votes for —
// with a fast vote, which cannot FP-finalize a rank-1 block but is the
// notarization vote all the same. The round notarizes on fast votes
// alone, unlocks, and SP-finalizes on finalization votes.
func TestCrashedLeaderRoundFirstVoteIsFast(t *testing.T) {
	for _, params := range clusterSizes {
		t.Run(fmt.Sprintf("n%d", params.N), func(t *testing.T) {
			set := genesisSet(t, params)
			self := set.ReplicaAt(1, types.Rank(params.N-1))
			r := newRig(t, params, self)
			b := r.rankedBlock(1, 1, types.Genesis().ID(), 1)
			r.deliver(b.Proposer, &types.Proposal{Block: b})
			if len(broadcasts[*types.VoteMsg](r)) != 0 {
				t.Fatal("voted for a rank-1 block before its notarization delay")
			}
			r.tick(2 * rigDelta * 2)
			if got := voteKinds(r); len(got) != 1 || got[0] != types.VoteFast {
				t.Fatalf("first vote of a crashed-leader round: %v, want one fast vote", got)
			}
			peers := peersOf(r)
			for _, p := range peers[:params.NotarizationQuorum()-1] {
				r.deliver(p, fastVoteMsg(r, p, b))
			}
			if r.eng.Round() != 2 {
				t.Fatalf("round %d after a notarization quorum of fast votes", r.eng.Round())
			}
			if r.eng.Metrics()["final_fast"] != 0 || finalizeVotesSent(r) != 1 {
				t.Fatalf("final_fast=%d, finalization votes sent=%d; want 0 and 1",
					r.eng.Metrics()["final_fast"], finalizeVotesSent(r))
			}
			for _, p := range peers[:params.FinalizationQuorum()-1] {
				r.deliver(p, &types.VoteMsg{Votes: []types.Vote{r.finalVote(p, b)}})
			}
			if c := r.commits(); len(c) != 1 || c[0].Explicit != protocol.FinalizeSlow {
				t.Fatalf("commits %v, want one SP-finalization", c)
			}
		})
	}
}

// TestReplayOldAndNewVoteForms: a journal from when the first vote of a
// round was two signatures ([notarize, fast]) and one in today's form
// ([fast]) restore the same voting record. And the record binds: a
// replica restarted after a round in which it cast only a fast vote does
// not fast-vote again, and — having notarization-voted for that block —
// sends no finalization vote for the twin the round then notarizes.
func TestReplayOldAndNewVoteForms(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(1, 1)
	r := newRig(t, p411, self)
	a := r.leaderBlock(1, types.Genesis().ID(), 'a')
	r.deliver(a.Proposer, r.proposalFor(a))
	journaled := broadcasts[*types.VoteMsg](r)
	if len(journaled) != 1 || len(journaled[0].Votes) != 1 {
		t.Fatalf("first life journaled %v", journaled)
	}
	forms := map[string]*types.VoteMsg{
		"new": journaled[0],
		"old": {Votes: []types.Vote{r.notarVote(self, a), journaled[0].Votes[0]}},
	}
	now := time.Unix(10, 0)
	records := make(map[string]map[types.Round]OwnRecord)
	for name, own := range forms {
		eng := replayRig(t, r)
		eng.BeginReplay()
		eng.Start(now)
		eng.HandleMessage(a.Proposer, r.proposalFor(a), now)
		eng.ReplayOwn(own, now)
		if v, _ := countSigning(eng.EndReplay(now)); v != 0 {
			t.Fatalf("%s form: re-voted after replay", name)
		}
		records[name] = eng.OwnVotingRecord()
		rec := records[name][1]
		if !rec.FastVoteSent || len(rec.NotarVotes) != 1 || rec.NotarVotes[0] != a.ID() ||
			len(rec.FastVotes) != 1 || rec.FastVotes[0] != a.ID() {
			t.Fatalf("%s form restored %+v", name, rec)
		}
		if rs := eng.rounds[1]; rs.votesHeld(types.VoteNotarize) != 0 || rs.notarSupport(a.ID()) != 2 {
			t.Fatalf("%s form: %d bare votes, support %d", name, rs.votesHeld(types.VoteNotarize), rs.notarSupport(a.ID()))
		}

		// Second life, live: the leader's twin shows up and wins the round.
		twin := r.leaderBlock(1, types.Genesis().ID(), 'z')
		acts := slices.Clone(eng.HandleMessage(twin.Proposer, r.proposalFor(twin), now))
		for _, p := range []types.ReplicaID{set.ReplicaAt(1, 2), set.ReplicaAt(1, 3)} {
			acts = append(acts, eng.HandleMessage(p, fastVoteMsg(r, p, twin), now)...)
		}
		if eng.Round() != 2 {
			t.Fatalf("%s form: round %d after the twin certified", name, eng.Round())
		}
		for _, act := range acts {
			bcast, ok := act.(protocol.Broadcast)
			if !ok {
				continue
			}
			if vm, ok := bcast.Msg.(*types.VoteMsg); ok {
				for _, v := range vm.Votes {
					if v.Kind != types.VoteNotarize || v.Block != twin.ID() {
						t.Errorf("%s form: restarted replica sent %v", name, v)
					}
				}
			}
		}
	}
	if fmt.Sprint(records["old"]) != fmt.Sprint(records["new"]) {
		t.Fatalf("old-form journal restored %v, new-form %v", records["old"], records["new"])
	}
}
