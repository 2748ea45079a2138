package crypto

import (
	"testing"

	"banyan/internal/types"
)

// What one delivery costs the verifier in allocations: nothing, whatever
// it carries.

// TestAllocRegressionSettledVoteMsg: the engine drops a late VoteMsg for
// a settled round before its verifier sees it (core's
// TestSettledRoundIgnoresLateTraffic); checking such a message's nine
// votes anyway allocates nothing.
func TestAllocRegressionSettledVoteMsg(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 4)
	v := NewVerifier(keyring)
	msg := &types.VoteMsg{}
	for _, kind := range []types.VoteKind{types.VoteNotarize, types.VoteFast, types.VoteFinalize} {
		msg.Votes = append(msg.Votes, collectVotes(signers, kind, 7, types.BlockID{7}, 0, 1, 2)...)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, vt := range msg.Votes {
			if err := v.VerifyVote(vt); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("VerifyVote of a round's votes allocates %.0f times, want 0", n)
	}
}

// TestAllocRegressionOneVoteMsg: verifying the one new signature a
// VoteMsg brings allocates nothing.
func TestAllocRegressionOneVoteMsg(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 4)
	v := NewVerifier(keyring)
	const runs = 50
	var msgs []*types.VoteMsg
	for r := 0; r < runs+1; r++ { // AllocsPerRun makes a warm-up call
		vote := signers[1].SignVote(types.VoteFast, types.Round(r+1), types.BlockID{byte(r)})
		msgs = append(msgs, &types.VoteMsg{Votes: []types.Vote{vote}})
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		if err := v.VerifyVote(msgs[next].Votes[0]); err != nil {
			t.Fatal(err)
		}
		next++
	}); n != 0 {
		t.Fatalf("VerifyVote of a new vote allocates %.0f times, want 0", n)
	}
}

// TestAllocRegressionUncachedAdvance: an Advance whose 3-signer
// notarization is new — three signatures verified one after another —
// allocates nothing.
func TestAllocRegressionUncachedAdvance(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 4)
	v := NewVerifier(keyring)
	const runs = 50
	var advs []*types.Advance
	for r := types.Round(1); r <= runs+1; r++ {
		id := types.BlockID{byte(r)}
		cert, err := types.NewCertificate(types.CertNotarization, r, id,
			collectVotes(signers, types.VoteNotarize, r, id, 0, 1, 3))
		if err != nil {
			t.Fatal(err)
		}
		advs = append(advs, &types.Advance{Notarization: cert})
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		if err := v.VerifyCert(advs[next].Notarization, 3); err != nil {
			t.Fatal(err)
		}
		next++
	}); n != 0 {
		t.Fatalf("VerifyCert of a new Advance allocates %.0f times, want 0", n)
	}
}
