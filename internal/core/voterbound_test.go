package core

import (
	"testing"
	"time"

	"banyan/internal/types"
)

// TestVoterBoundAtEveryEntrance: a voteSet is indexed by voter ID, so every
// way into the ledgers — a peer's vote, an unlock proof's entries, a
// journaled own vote — is tried with a voter beyond the identity registry
// and with a validator the round's epoch no longer holds. All are refused
// without a panic and the ledgers stay empty; recordVote itself refuses
// both whatever its caller checked.
func TestVoterBoundAtEveryEntrance(t *testing.T) {
	const (
		removed  = types.ReplicaID(4)
		stranger = types.ReplicaID(200)
		round    = types.Round(2)
	)
	params := types.Params{N: 5, F: 1, P: 1}
	// Each engine learns that round 1 onward belongs to an epoch without
	// the removed validator.
	shrink := func(e *Engine) {
		if _, ok := e.History().Apply(&types.ConfigChange{Op: types.ConfigRemove, Replica: removed}, 0); !ok {
			t.Fatal("removal did not apply")
		}
	}
	r := newRig(t, params, 1)
	shrink(r.eng)
	b := r.leaderBlock(round, types.BlockID{1}, 'x')
	// held counts what the ledgers of the tested round hold.
	held := func(e *Engine) int {
		if rs := e.rounds[round]; rs != nil {
			return ledgerSizes(rs)
		}
		return 0
	}
	vote := func(kind types.VoteKind, signer, voter types.ReplicaID) types.Vote {
		v := r.signers[signer].SignVote(kind, round, b.ID())
		v.Voter = voter
		return v
	}

	// A peer's vote: the removed validator's signature is genuine.
	for _, voter := range []types.ReplicaID{removed, stranger} {
		for _, kind := range []types.VoteKind{types.VoteFast, types.VoteNotarize, types.VoteFinalize} {
			before := r.eng.Metrics()["rejected"]
			r.deliver(2, &types.VoteMsg{Votes: []types.Vote{vote(kind, removed, voter)}})
			if r.eng.Metrics()["rejected"] != before+1 || held(r.eng) != 0 {
				t.Fatalf("%s vote by %d: rejected %d→%d, %d votes held", kind, voter,
					before, r.eng.Metrics()["rejected"], held(r.eng))
			}
		}
	}

	// An unlock proof: two members' fast votes and the outsider's would
	// clear f+p = 2 were the third one counted; none of them is absorbed.
	for _, voter := range []types.ReplicaID{removed, stranger} {
		entry := types.UnlockEntry{Header: b.Header(), Voters: []types.ReplicaID{0, 2, voter}}
		for _, v := range entry.Voters {
			entry.Sigs = append(entry.Sigs, vote(types.VoteFast, min(v, removed), v).Signature)
		}
		before := r.eng.Metrics()["rejected"]
		r.deliver(2, &types.Advance{Unlock: &types.UnlockProof{Round: round, Block: b.ID(), Entries: []types.UnlockEntry{entry}}})
		if rs := r.eng.rounds[round]; r.eng.Metrics()["rejected"] != before+1 || held(r.eng) != 0 || rs.isUnlocked(b.ID()) {
			t.Fatalf("unlock proof with voter %d: rejected %d→%d, %d votes held, unlocked %v", voter,
				before, r.eng.Metrics()["rejected"], held(r.eng), rs.isUnlocked(b.ID()))
		}
	}

	// The one way in, asked directly.
	rs, set := r.eng.getRound(round), r.eng.setFor(round)
	for _, voter := range []types.ReplicaID{removed, stranger, types.NoReplica} {
		rs.recordVote(types.VoteFast, b.ID(), voter, []byte{1}, set)
		rs.recordVote(types.VoteFinalize, b.ID(), voter, []byte{1}, set)
	}
	rs.recomputeUnlock(set.Params().UnlockThreshold())
	if held(r.eng) != 0 || rs.gen != 0 {
		t.Fatalf("recordVote let a non-member in: %d votes held, generation %d", held(r.eng), rs.gen)
	}

	// A journaled own vote, replayed by the removed validator itself and
	// then under a voter ID that is not the replica's.
	self := newRig(t, params, removed)
	eng := replayRig(t, self)
	shrink(eng)
	eng.BeginReplay()
	now := time.Unix(10, 0)
	eng.Start(now)
	for _, voter := range []types.ReplicaID{removed, stranger} {
		eng.ReplayOwn(&types.VoteMsg{Votes: []types.Vote{vote(types.VoteFast, removed, voter)}}, now)
		if held(eng) != 0 {
			t.Fatalf("replayed own vote by %d: %d votes held", voter, held(eng))
		}
	}
	eng.EndReplay(now)
}
