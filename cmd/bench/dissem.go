package main

import (
	"fmt"

	"banyan/internal/harness"
	"banyan/internal/wan"
)

// runDissem measures the batch-dissemination layer (internal/dissem):
// blocks commit an ordered list of batch digests while the bodies travel
// out-of-band, continuously, off the consensus path. Two claims are under
// test, on a constrained ~25 MB/s uplink so body transfer dominates:
//
//   - Decoupling: the proposal's wire size is a function of the digest
//     list, not the payload — it stays flat (within 2 KB) as the block
//     size sweeps 64 KB → 4 MB, where inline proposals grow 64x.
//   - Throughput: with the vote path freed from body transfer, rounds
//     certify at message-exchange speed and sustained committed bytes/s
//     beats inline at large block sizes (≥20% at 2 MB).
//
// Inline and dissemination runs share seed, topology, and workload; the
// only delta is the knob.
func runDissem(o options) error {
	topo, err := wan.FourGlobal4()
	if err != nil {
		return err
	}
	const bandwidth = 25e6 // bytes/s uplink: makes body transfer dominate
	sizes := []int{64 << 10, 256 << 10, 1 << 20, 2 << 20, 4 << 20}
	if o.quick {
		sizes = []int{64 << 10, 2 << 20, 4 << 20}
	}
	fmt.Printf("inline vs out-of-band dissemination, n=4, 4 global DCs, %.0f MB/s uplink\n", bandwidth/1e6)
	fmt.Printf("%-22s %10s %10s %12s %14s %8s %8s\n",
		"config", "mean(ms)", "p95(ms)", "tput(MB/s)", "proposal-wire", "fast", "slow")

	type point struct{ inline, dissem *harness.Result }
	points := make(map[int]point, len(sizes))
	row := func(label string, r *harness.Result) {
		fmt.Printf("%-22s %10.1f %10.1f %12.2f %14s %8d %8d\n", label,
			msF(r.Latency.Mean), msF(r.Latency.P95), r.ThroughputBps/1e6,
			wireLabel(r.MaxProposalWire), r.FastFinal, r.SlowFinal)
	}
	for _, size := range sizes {
		// The batch cut size scales with the block size (floor 64 KB) so a
		// proposal never references more than ~16 batches: the digest list —
		// and with it the proposal wire size — stays flat across the sweep.
		batchBytes := size / 16
		if batchBytes < 64<<10 {
			batchBytes = 64 << 10
		}
		var pt point
		for _, dissem := range []bool{false, true} {
			cfg := harness.Config{
				Protocol:         harness.Banyan,
				Params:           harness.ParamsFor(harness.Banyan, 4, 1, 1),
				Topology:         topo,
				BlockSize:        size,
				BandwidthBps:     bandwidth,
				Duration:         o.duration,
				Seed:             o.seed,
				Dissem:           dissem,
				DissemBatchBytes: batchBytes,
			}
			res, err := runChecked(cfg)
			if err != nil {
				return err
			}
			if dissem {
				pt.dissem = res
				row("dissem/"+sizeLabel(size), res)
			} else {
				pt.inline = res
				row("inline/"+sizeLabel(size), res)
			}
		}
		points[size] = pt
		fmt.Printf("%-22s tput %+.1f%%  proposal wire %s -> %s\n\n",
			"  Δ "+sizeLabel(size),
			100*(pt.dissem.ThroughputBps/pt.inline.ThroughputBps-1),
			wireLabel(pt.inline.MaxProposalWire), wireLabel(pt.dissem.MaxProposalWire))
	}

	// The two acceptance claims, stated against the sweep.
	minWire, maxWire := points[sizes[0]].dissem.MaxProposalWire, 0
	for _, size := range sizes {
		w := points[size].dissem.MaxProposalWire
		minWire, maxWire = min(minWire, w), max(maxWire, w)
	}
	fmt.Printf("dissem proposal wire across %s..%s sweep: %s..%s (spread %d B; decoupled iff ≤ 2 KB)\n",
		sizeLabel(sizes[0]), sizeLabel(sizes[len(sizes)-1]),
		wireLabel(minWire), wireLabel(maxWire), maxWire-minWire)
	gainAt := 2 << 20
	if pt, ok := points[gainAt]; ok {
		fmt.Printf("sustained throughput at 2MB blocks: %.2f MB/s inline vs %.2f MB/s dissem (%+.1f%%)\n",
			pt.inline.ThroughputBps/1e6, pt.dissem.ThroughputBps/1e6,
			100*(pt.dissem.ThroughputBps/pt.inline.ThroughputBps-1))
	}
	fmt.Println("(bodies broadcast continuously by every replica as they are cut, so the")
	fmt.Println(" vote path carries digests only; delivery — not voting — gates on bodies)")

	return nil
}

func wireLabel(b int) string {
	if b >= 1<<20 {
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	}
	if b >= 1<<10 {
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
