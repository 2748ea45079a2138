package core

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"banyan/internal/crypto"
	"banyan/internal/types"
)

// propertyTrials returns the iteration count for randomized property
// tests: def by default, overridden by BANYAN_PROPERTY_TRIALS for the
// long-mode CI job (which runs the same battery at much higher counts
// under -race).
func propertyTrials(def int) int {
	if s := os.Getenv("BANYAN_PROPERTY_TRIALS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestUnlockMonotonicity is the property the engine's incremental
// recomputation relies on: as fast votes arrive in any order, unlock flags
// only ever turn on — never off — and the final unlock state depends only
// on the vote *set*, not its arrival order.
func TestUnlockMonotonicity(t *testing.T) {
	params := types.Params{N: 7, F: 2, P: 1}
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 3)
	_ = keyring
	thr, set := params.UnlockThreshold(), genesisSet(t, params)

	for trial := 0; trial < propertyTrials(60); trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))

		// A random round scenario: 1-2 rank-0 blocks (equivocation), up to
		// two higher-rank blocks, and a random assignment of fast votes
		// (each voter votes 1..2 random blocks — Byzantine voters may
		// double-vote).
		round := types.Round(1)
		var blocks []*types.Block
		nLeaderBlocks := 1 + rng.Intn(2)
		for i := 0; i < nLeaderBlocks; i++ {
			b := types.NewBlock(round, set.Leader(round), 0,
				types.Genesis().ID(), types.BytesPayload([]byte{byte(i)}))
			if err := signers[b.Proposer].SignBlock(b); err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, b)
		}
		for rank := types.Rank(1); int(rank) <= rng.Intn(3); rank++ {
			proposer := set.ReplicaAt(round, rank)
			b := types.NewBlock(round, proposer, rank,
				types.Genesis().ID(), types.BytesPayload([]byte{0xF0 ^ byte(rank)}))
			if err := signers[proposer].SignBlock(b); err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, b)
		}
		type fv struct {
			voter types.ReplicaID
			block int
		}
		var votes []fv
		for v := 0; v < params.N; v++ {
			nVotes := 1 + rng.Intn(2)
			for k := 0; k < nVotes; k++ {
				votes = append(votes, fv{types.ReplicaID(v), rng.Intn(len(blocks))})
			}
		}

		// Apply in two different random orders; track monotonicity.
		run := func(order []int) (map[types.BlockID]bool, bool) {
			rs := newRoundState()
			for _, b := range blocks {
				rs.addBlock(b)
			}
			prevUnlocked := make(map[types.BlockID]bool)
			prevAll := false
			for _, idx := range order {
				v := votes[idx]
				rs.recordVote(types.VoteFast, blocks[v.block].ID(), v.voter, []byte{1}, set)
				rs.recomputeUnlock(thr)
				for id, was := range prevUnlocked {
					if was && !rs.peek(id).unlocked {
						t.Fatalf("trial %d: unlock revoked for %s", trial, id)
					}
				}
				if prevAll && !rs.allUnlocked {
					t.Fatalf("trial %d: allUnlocked revoked", trial)
				}
				for id, r := range rs.byID {
					prevUnlocked[id] = r.unlocked
				}
				prevAll = rs.allUnlocked
			}
			final := make(map[types.BlockID]bool)
			for _, b := range blocks {
				final[b.ID()] = rs.isUnlocked(b.ID())
			}
			return final, rs.allUnlocked
		}

		order1 := rng.Perm(len(votes))
		order2 := rng.Perm(len(votes))
		final1, all1 := run(order1)
		final2, all2 := run(order2)
		if all1 != all2 {
			t.Fatalf("trial %d: allUnlocked depends on arrival order", trial)
		}
		for id, u1 := range final1 {
			if final2[id] != u1 {
				t.Fatalf("trial %d: unlock state for %s depends on arrival order", trial, id)
			}
		}
	}
}

// TestProofMatchesLocalState: whenever the engine considers a block
// unlocked from its own votes, the transferable proof it builds must
// verify under the same threshold — and vice versa, a verifying proof must
// describe a genuinely unlocked state. This ties Definition 7.6 (local)
// to Definition 7.7 (transferable) across random scenarios of fast and
// bare notarization votes. The notarization certificate built from the
// held votes unlocks itself exactly when its fast-marked signers, taken
// as a proof of their own, establish Definition 7.6 — and then the block
// is unlocked locally too.
func TestProofMatchesLocalState(t *testing.T) {
	for _, params := range clusterSizes {
		t.Run(fmt.Sprintf("n%d", params.N), func(t *testing.T) {
			proofMatchesLocalState(t, params)
		})
	}
}

func proofMatchesLocalState(t *testing.T, params types.Params) {
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 9)
	thr, set := params.UnlockThreshold(), genesisSet(t, params)
	selfUnlocking := 0

	for trial := 0; trial < propertyTrials(80); trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		round := types.Round(1)
		rs := newRoundState()
		var blocks []*types.Block
		for i := 0; i < 1+rng.Intn(2); i++ { // 1-2 rank-0 blocks
			b := types.NewBlock(round, set.Leader(round), 0,
				types.Genesis().ID(), types.BytesPayload([]byte{byte(i)}))
			if err := signers[b.Proposer].SignBlock(b); err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, b)
			rs.addBlock(b)
		}
		if rng.Intn(2) == 0 { // maybe a rank-1 block
			proposer := set.ReplicaAt(round, 1)
			b := types.NewBlock(round, proposer, 1, types.Genesis().ID(),
				types.BytesPayload([]byte{0xAA}))
			if err := signers[proposer].SignBlock(b); err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, b)
			rs.addBlock(b)
		}
		// Random real votes: one or two fast votes per voter (a Byzantine
		// voter may cast two), and maybe a bare notarization vote.
		for v := 0; v < params.N; v++ {
			for k := 0; k <= rng.Intn(2); k++ {
				b := blocks[rng.Intn(len(blocks))]
				vote := signers[v].SignVote(types.VoteFast, round, b.ID())
				rs.recordVote(types.VoteFast, b.ID(), vote.Voter, vote.Signature, set)
			}
			if rng.Intn(2) == 0 {
				b := blocks[rng.Intn(len(blocks))]
				vote := signers[v].SignVote(types.VoteNotarize, round, b.ID())
				rs.recordVote(types.VoteNotarize, b.ID(), vote.Voter, vote.Signature, set)
			}
		}
		rs.recomputeUnlock(thr)

		for _, b := range blocks {
			id := b.ID()
			proof := rs.buildUnlockProof(round, id, thr)
			if rs.isUnlocked(id) {
				if proof == nil {
					t.Fatalf("trial %d: block unlocked locally but no proof constructible", trial)
				}
				if err := crypto.VerifyUnlockProof(keyring, proof, thr); err != nil {
					t.Fatalf("trial %d: constructed proof does not verify: %v", trial, err)
				}
			} else if proof != nil {
				t.Fatalf("trial %d: proof built for a locked block", trial)
			}

			cert := rs.certificate(types.CertNotarization, round, id)
			if err := crypto.VerifyCert(keyring, cert, 0); err != nil {
				t.Fatalf("trial %d: notarization from the held votes does not verify: %v", trial, err)
			}
			marked := types.UnlockEntry{Header: b.Header()}
			for i, s := range cert.Signers {
				if cert.FastSigned(i) {
					marked.Voters = append(marked.Voters, s)
					marked.Sigs = append(marked.Sigs, cert.Sigs[i])
				}
			}
			def76 := crypto.VerifyUnlockProof(keyring, &types.UnlockProof{
				Round: round, Block: id, Entries: []types.UnlockEntry{marked},
			}, thr) == nil
			if got := unlocksItself(cert, set); got != def76 {
				t.Fatalf("trial %d: unlocksItself = %v with %d fast-marked signers, Definition 7.6 says %v",
					trial, got, len(marked.Voters), def76)
			}
			if def76 {
				selfUnlocking++
				if !rs.isUnlocked(id) {
					t.Fatalf("trial %d: a notarization from the held votes unlocks a block the round holds locked", trial)
				}
			}
		}
	}
	if selfUnlocking == 0 {
		t.Fatal("no trial built a notarization that unlocks itself")
	}
}
