package integration_test

import (
	"fmt"
	"testing"
	"time"

	"banyan/internal/byzantine"
	"banyan/internal/crypto"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// Whole-cluster checks for the one-signature vote: a fast vote is its
// voter's notarization vote for the same block.

// sigBudget is what one simulated run signed and verified.
type sigBudget struct {
	perRound  map[types.Round]int // block + notarization + fast signatures made, by round
	finalize  int                 // finalization-vote signatures made
	verified  int64               // signatures verified, all replicas (sigs_verified)
	finalized types.Round         // rounds every replica finalized
}

func runSigBudget(t *testing.T, params types.Params, seed uint64, d time.Duration) sigBudget {
	t.Helper()
	engines := buildCluster(t, params, "banyan", nil)
	log := newRoundLog()
	hooks := log.hooks()
	out := sigBudget{perRound: make(map[types.Round]int)}
	hooks.OnBroadcast = func(node types.ReplicaID, _ time.Time, msg types.Message) {
		switch m := msg.(type) {
		case *types.Proposal:
			if m.Block != nil && !m.Relayed && m.Block.Proposer == node {
				out.perRound[m.Block.Round]++
				if m.FastVote != nil {
					out.perRound[m.Block.Round]++
				}
			}
		case *types.VoteMsg:
			for _, v := range m.Votes {
				switch {
				case v.Voter != node:
				case v.Kind == types.VoteFinalize:
					out.finalize++
				default:
					out.perRound[v.Round]++
				}
			}
		}
	}
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(params.N, 10*time.Millisecond),
		Seed:     seed,
	}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(d)
	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	log.checkRoundConsistent(t)
	out.finalized = types.Round(1 << 62)
	for _, eng := range engines {
		m := eng.Metrics()
		out.verified += m["sigs_verified"]
		if m["resends"] != 0 || m["final_fast"] == 0 {
			t.Fatalf("not a clean fast-path run: %d resends, %d fast finalizations", m["resends"], m["final_fast"])
		}
		if fin := types.Round(len(log.chains[eng.ID()])); fin < out.finalized {
			out.finalized = fin
		}
	}
	return out
}

// TestSignatureBudget: on the fast path a round costs the cluster n+1
// signatures — the block and one fast vote per replica, the leader's
// riding its proposal — where signing the notarization vote separately
// made it 2n+1 (finalization votes, which only rounds that advance
// before they finalize send, are counted apart). What a replica verifies
// falls with it: every vote is one signature to check, and the leader
// sends no second one. Same-seed runs sign and verify exactly the same.
func TestSignatureBudget(t *testing.T) {
	cases := []struct {
		params      types.Params
		d           time.Duration
		maxVerified float64 // signatures verified per replica per finalized round
	}{
		{types.Params{N: 4, F: 1, P: 1}, 3 * time.Second, 3.0},   // 4.7 with two signatures per vote
		{types.Params{N: 7, F: 2, P: 1}, 3 * time.Second, 7.0},   // n: block + n-1 peers' votes
		{types.Params{N: 19, F: 6, P: 1}, 2 * time.Second, 20.0}, // 34.9 with two signatures per vote
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d", tc.params.N), func(t *testing.T) {
			n := tc.params.N
			got := runSigBudget(t, tc.params, 41, tc.d)
			if got.finalized < 20 {
				t.Fatalf("only %d rounds finalized", got.finalized)
			}
			// Rounds every replica finalized were voted on by every replica.
			for r := types.Round(1); r <= got.finalized; r++ {
				if got.perRound[r] != n+1 {
					t.Fatalf("round %d: %d signatures made, want n+1 = %d", r, got.perRound[r], n+1)
				}
			}
			perReplicaRound := float64(got.verified) / float64(n) / float64(got.finalized)
			t.Logf("n=%d: %d rounds, %d signatures per round (+%.1f finalization votes), %.2f verified per replica per round",
				n, got.finalized, n+1, float64(got.finalize)/float64(got.finalized), perReplicaRound)
			if perReplicaRound > tc.maxVerified {
				t.Errorf("%.2f signatures verified per replica per finalized round, budget %.1f", perReplicaRound, tc.maxVerified)
			}
			again := runSigBudget(t, tc.params, 41, tc.d)
			if again.verified != got.verified || again.finalize != got.finalize || again.finalized != got.finalized ||
				fmt.Sprint(again.perRound) != fmt.Sprint(got.perRound) {
				t.Errorf("same seed, different budget: %d/%d/%d vs %d/%d/%d",
					got.verified, got.finalize, got.finalized, again.verified, again.finalize, again.finalized)
			}
		})
	}
}

// TestSplitVoterBattery (n=7, f=2): an equivocating leader and a
// SplitVoter together. In the leader's rounds the voter fast-votes one
// twin and notarization-votes the other; in every round it fast-votes
// whatever block it hears of first, valid or not, with no notarization
// vote beside it, and claims a clean N with a finalization vote. Counting
// its fast votes as notarization votes gives it nothing it could not
// already do by sending both: every replica finalizes the same block at
// every round, none faults, and the honest five keep finalizing.
func TestSplitVoterBattery(t *testing.T) {
	params := types.Params{N: 7, F: 2, P: 1}
	const leader, voter = types.ReplicaID(5), types.ReplicaID(6)
	for _, seed := range []uint64{3, 17, 29} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var split *byzantine.SplitVoter
			engines := buildCluster(t, params, "banyan",
				func(id types.ReplicaID, eng protocol.Engine, signer *crypto.Signer) protocol.Engine {
					switch id {
					case leader:
						return byzantine.NewEquivocatingLeader(eng, signer, params.N)
					case voter:
						split = byzantine.NewSplitVoter(eng, signer)
						return split
					}
					return eng
				})
			log := newRoundLog()
			// Jitter with reordering, so which twin — and whether body, relay
			// or another voter's vote — reaches whom first varies by seed.
			net, err := simnet.New(engines, simnet.Options{
				Topology:        wan.Uniform(params.N, 10*time.Millisecond),
				JitterFrac:      0.5,
				AllowReordering: true,
				Seed:            seed,
			}, log.hooks())
			if err != nil {
				t.Fatal(err)
			}
			net.Run(10 * time.Second)
			if len(log.faults) > 0 {
				t.Fatalf("safety faults: %v", log.faults)
			}
			log.checkRoundConsistent(t)
			for id := types.ReplicaID(0); id < leader; id++ {
				if got := len(log.chains[id]); got < 100 {
					t.Errorf("honest replica %d finalized only %d rounds", id, got)
				}
			}
			if split.FastVotes() < 100 || split.Splits() < 5 {
				t.Fatalf("adversary idle: %d fast votes, %d split rounds", split.FastVotes(), split.Splits())
			}
			t.Logf("%d rounds, %d lone fast votes, %d twins notarization-voted",
				len(log.chains[0]), split.FastVotes(), split.Splits())
		})
	}
}
