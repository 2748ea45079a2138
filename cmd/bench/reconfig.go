package main

import (
	"fmt"
	"time"

	"banyan/internal/harness"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// runReconfig measures what a membership change costs a live cluster: a
// 4-replica deployment finalizes a ConfigChange admitting a 5th replica
// (which bootstraps through snapshot state sync and votes from the next
// round on), runs the 5-replica epoch for a stretch, then votes the
// joiner back out. The quantity under test is the commit-latency blip
// across each epoch boundary — the rounds right after activation, where
// quorum size and leader schedule change underfoot — against each
// epoch's steady-state latency.
func runReconfig(o options) error {
	const (
		maxN = 5
		n    = 4
	)
	topo := wan.Uniform(maxN, 25*time.Millisecond)
	dur := o.duration
	addAt := dur * 3 / 10
	removeAt := dur * 7 / 10
	cfg := harness.Config{
		Protocol:  harness.Banyan,
		Params:    harness.ParamsFor(harness.Banyan, n, 1, 1),
		MaxN:      maxN,
		Topology:  topo,
		BlockSize: 64 << 10,
		Duration:  dur,
		Seed:      o.seed,
		// Deep-pruned windows force the joiner through the snapshot path
		// before its first vote, as a real late-provisioned replica would be.
		DeepPrune:     true,
		PruneKeep:     32,
		PruneInterval: 16,
		Join:          []harness.CrashSpec{{Replica: n, At: addAt / 2}},
		Reconfig: []harness.ReconfigSpec{
			{Replica: n, At: addAt, Op: types.ConfigAdd},
			{Replica: n, At: removeAt, Op: types.ConfigRemove},
		},
	}
	res, err := o.run(cfg)
	if err != nil {
		return err
	}
	if res.Epoch != 2 || len(res.EpochActivations) != 2 {
		return fmt.Errorf("reconfig: observer ended at epoch %d with activations %v, want 2 epochs",
			res.Epoch, res.EpochActivations)
	}
	fmt.Printf("n=4 -> 5 -> 4, uniform 25ms WAN, 64KB blocks; add at %s, remove at %s\n",
		addAt, removeAt)
	fmt.Printf("epoch activations: +replica at round %d, -replica at round %d\n",
		res.EpochActivations[0], res.EpochActivations[1])

	// Bucket the round-tagged latency samples by epoch, and carve out the
	// boundary window — the first rounds of each new epoch — separately.
	const boundaryRounds = 8
	bounds := res.EpochActivations
	epochOf := func(r types.Round) int {
		e := 0
		for _, a := range bounds {
			if r >= a {
				e++
			}
		}
		return e
	}
	steady := make([][]time.Duration, len(bounds)+1)
	blips := make([][]time.Duration, len(bounds))
	for _, rl := range res.RoundLatencies {
		e := epochOf(rl.Round)
		inBlip := false
		if e > 0 && rl.Round < bounds[e-1]+boundaryRounds {
			blips[e-1] = append(blips[e-1], rl.Latency)
			inBlip = true
		}
		if !inBlip {
			steady[e] = append(steady[e], rl.Latency)
		}
	}
	mean := func(ds []time.Duration) time.Duration {
		if len(ds) == 0 {
			return 0
		}
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return sum / time.Duration(len(ds))
	}

	fmt.Printf("%-26s %10s %8s\n", "window", "mean(ms)", "blocks")
	sizes := []int{n, maxN, n}
	for e, ds := range steady {
		label := fmt.Sprintf("epoch %d (n=%d) steady", e, sizes[e])
		fmt.Printf("%-26s %10.1f %8d\n", label, msF(mean(ds)), len(ds))
	}
	for e, ds := range blips {
		label := fmt.Sprintf("epoch %d boundary (%dr)", e+1, boundaryRounds)
		fmt.Printf("%-26s %10.1f %8d\n", label, msF(mean(ds)), len(ds))
		if sm := mean(steady[e+1]); sm > 0 && len(ds) > 0 {
			blip := 100 * (float64(mean(ds))/float64(sm) - 1)
			fmt.Printf("%-26s %+9.1f%%\n", "  blip vs steady", blip)
		}
	}
	fmt.Printf("\nobserver: %d blocks committed, %d fast / %d slow finalizations, %d faults\n",
		res.BlocksCommitted, res.FastFinal, res.SlowFinal, res.Faults)
	fmt.Println("(the boundary window is the first 8 rounds of each new epoch: the old")
	fmt.Println(" set's certs still verify, the new set votes, and the joiner enters")
	fmt.Println(" through snapshot state sync before its first vote)")

	return nil
}
