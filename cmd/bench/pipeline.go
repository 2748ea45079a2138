package main

import (
	"fmt"

	"banyan/internal/harness"
	"banyan/internal/wan"
)

// runPipeline compares optimistic proposal pipelining (Moonshot mode;
// ARCHITECTURE.md, "Optimistic proposal pipelining") with the default
// engine at n=4 over a 25 MB/s uplink: the next leader broadcasts its
// block on the expected parent as soon as the round's rank-0 block
// arrives, before the round certifies. Baseline and pipelined runs share
// seed, topology and workload; the only delta is the knob.
//
// What it shows today: the mode does not pay at n=4. At 512 KB the mean
// falls 5 % and the p50 15 %, but the p95 rises 13 %; at 1 MB the mean
// rises 30 %, and at 2 MB 53 %. Its one win is at n=19 with a
// bandwidth-bound uplink, where header relays carry no body (a
// sim19_wan-shaped simulation over seeds 1–10: p50 −13 % and 7 % more
// blocks at 25 MB/s, neutral at the default 625 MB/s). The mode stays
// off by default until a benchmark workload measures that regime.
func runPipeline(o options) error {
	topo, err := wan.FourGlobal4()
	if err != nil {
		return err
	}
	const bandwidth = 25e6 // bytes/s uplink: makes body transfer dominate
	sizes := []int{512 << 10, 1 << 20, 2 << 20}
	if o.quick {
		sizes = []int{1 << 20}
	}
	fmt.Printf("zero-loss pipeline comparison, n=4, 4 global DCs, %0.f MB/s uplink\n", bandwidth/1e6)
	printHeader()
	for _, size := range sizes {
		var base, opt *harness.Result
		for _, pipelined := range []bool{false, true} {
			cfg := harness.Config{
				Protocol:            harness.Banyan,
				Params:              harness.ParamsFor(harness.Banyan, 4, 1, 1),
				Topology:            topo,
				BlockSize:           size,
				BandwidthBps:        bandwidth,
				Duration:            o.duration,
				Seed:                o.seed,
				OptimisticProposals: pipelined,
			}
			res, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			label := "baseline/" + sizeLabel(size)
			if pipelined {
				label = "pipelined/" + sizeLabel(size)
				opt = res
			} else {
				base = res
			}
			printRow(label, res)
		}
		fmt.Printf("%-22s mean %+.1f%%  p50 %+.1f%%  (opt proposed=%d confirmed=%d withdrawn=%d)\n\n",
			"  Δ "+sizeLabel(size),
			100*(float64(opt.Latency.Mean)/float64(base.Latency.Mean)-1),
			100*(float64(opt.Latency.P50)/float64(base.Latency.P50)-1),
			opt.Counters["opt_proposed"], opt.Counters["opt_confirmed"], opt.Counters["opt_withdrawn"])
	}
	fmt.Println("(at n=4 the mode does not pay: at 512KB the mean falls 5% and the p50 15% but the")
	fmt.Println(" p95 rises 13%; at 1MB the mean rises 30%, at 2MB 53%. Its one measured win is n=19")
	fmt.Println(" on a bandwidth-bound uplink, so the mode stays off by default)")
	return nil
}
