package integration_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// chaosSchedule is a randomized fault scenario derived from a seed.
type chaosSchedule struct {
	seed       int64
	n, f, p    int
	oneWay     time.Duration
	jitter     float64
	reorder    bool
	dropRate   float64
	crashes    []types.ReplicaID
	crashTimes []time.Duration
}

func newChaosSchedule(seed int64) chaosSchedule {
	rng := rand.New(rand.NewSource(seed))
	cs := chaosSchedule{
		seed:    seed,
		oneWay:  time.Duration(5+rng.Intn(30)) * time.Millisecond,
		jitter:  rng.Float64() * 0.5,
		reorder: rng.Intn(2) == 0,
		// Random loss up to 5%: the BFT model assumes reliable links, but
		// the engines' resend mechanism must recover from drops.
		dropRate: rng.Float64() * 0.05,
	}
	// Cluster shapes satisfying n >= max(3f+2p-1, 3f+1).
	shapes := [][3]int{{4, 1, 1}, {7, 2, 1}, {9, 2, 2}}
	shape := shapes[rng.Intn(len(shapes))]
	cs.n, cs.f, cs.p = shape[0], shape[1], shape[2]
	// Crash up to f replicas at random times.
	crashes := rng.Intn(cs.f + 1)
	perm := rng.Perm(cs.n)
	for i := 0; i < crashes; i++ {
		cs.crashes = append(cs.crashes, types.ReplicaID(perm[i]))
		cs.crashTimes = append(cs.crashTimes, time.Duration(rng.Intn(10))*time.Second)
	}
	return cs
}

func (cs chaosSchedule) String() string {
	return fmt.Sprintf("seed=%d n=%d f=%d p=%d delay=%v jitter=%.2f reorder=%v drop=%.3f crashes=%v",
		cs.seed, cs.n, cs.f, cs.p, cs.oneWay, cs.jitter, cs.reorder, cs.dropRate, cs.crashes)
}

// TestChaosBanyan runs randomized fault scenarios against Banyan clusters:
// whatever the schedule, safety (prefix consistency, no faults) must hold,
// and with at most f crashes the chain must keep growing.
func TestChaosBanyan(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cs := newChaosSchedule(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			params := types.Params{N: cs.n, F: cs.f, P: cs.p}
			if err := params.Validate(); err != nil {
				t.Fatalf("generated invalid params %v: %v", params, err)
			}
			engines := makeBanyanEngines(t, params, 80*time.Millisecond, 512, false)
			log := newCommitLog()
			dropRng := rand.New(rand.NewSource(cs.seed * 977))
			net, err := simnet.New(engines, simnet.Options{
				Topology:        wan.Uniform(cs.n, cs.oneWay),
				Seed:            uint64(cs.seed),
				JitterFrac:      cs.jitter,
				AllowReordering: cs.reorder,
				Filter: func(from, to types.ReplicaID, _ types.Message, _ time.Time) bool {
					return dropRng.Float64() >= cs.dropRate
				},
			}, log.hooks())
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range cs.crashes {
				net.CrashAt(id, cs.crashTimes[i])
			}
			net.Run(25 * time.Second)

			if len(log.faults) > 0 {
				t.Fatalf("%v: faults %v", cs, log.faults)
			}
			log.checkPrefixConsistent(t)
			crashed := make(map[types.ReplicaID]bool, len(cs.crashes))
			for _, id := range cs.crashes {
				crashed[id] = true
			}
			for i := 0; i < cs.n; i++ {
				id := types.ReplicaID(i)
				if crashed[id] {
					continue
				}
				if got := len(log.chains[id]); got < 20 {
					t.Errorf("%v: replica %d committed only %d blocks", cs, id, got)
				}
			}
		})
	}
}

// TestHeavyLossRecovery hammers a Banyan cluster with 10% uniform message
// loss and a crashed replica (so quorums need every remaining replica):
// the resend mechanism must keep the chain growing.
func TestHeavyLossRecovery(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	engines := makeBanyanEngines(t, params, 50*time.Millisecond, 256, false)
	log := newCommitLog()
	dropRng := rand.New(rand.NewSource(321))
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(4, 10*time.Millisecond),
		Seed:     17,
		Filter: func(from, to types.ReplicaID, _ types.Message, _ time.Time) bool {
			return dropRng.Float64() >= 0.10
		},
	}, log.hooks())
	if err != nil {
		t.Fatal(err)
	}
	net.CrashAt(3, 0)
	net.Run(60 * time.Second)
	if len(log.faults) > 0 {
		t.Fatalf("faults: %v", log.faults)
	}
	log.checkPrefixConsistent(t)
	m := engines[0].Metrics()
	if m["blocks_commit"] < 40 {
		t.Errorf("only %d blocks under 10%% loss; resend mechanism ineffective (resends=%d)",
			m["blocks_commit"], m["resends"])
	}
	if m["resends"] == 0 {
		t.Error("no resends recorded despite heavy loss")
	}
	t.Logf("blocks=%d resends=%d", m["blocks_commit"], m["resends"])
}

// TestChaosAllProtocols runs a lighter chaos pass (jitter + reordering, no
// loss or crashes) over all four protocols: safety everywhere, liveness
// for the responsive protocols.
func TestChaosAllProtocols(t *testing.T) {
	type mk func(*testing.T, types.Params, time.Duration, int) []protocol.Engine
	builders := map[string]mk{
		"icc": makeICCEngines,
		"hotstuff": func(t *testing.T, p types.Params, _ time.Duration, size int) []protocol.Engine {
			return makeHotStuffEngines(t, p, size)
		},
		"streamlet": makeStreamletEngines,
	}
	for name, build := range builders {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				params := types.Params{N: 4, F: 1}
				engines := build(t, params, 100*time.Millisecond, 256)
				log := newCommitLog()
				net, err := simnet.New(engines, simnet.Options{
					Topology:        wan.Uniform(4, 15*time.Millisecond),
					Seed:            seed,
					JitterFrac:      0.8,
					AllowReordering: true,
				}, log.hooks())
				if err != nil {
					t.Fatal(err)
				}
				net.Run(20 * time.Second)
				if len(log.faults) > 0 {
					t.Fatalf("faults: %v", log.faults)
				}
				log.checkPrefixConsistent(t)
				if got := len(log.chains[0]); got < 10 {
					t.Errorf("%s seed %d: only %d commits", name, seed, got)
				}
			})
		}
	}
}
