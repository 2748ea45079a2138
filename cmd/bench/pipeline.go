package main

import (
	"fmt"

	"banyan/internal/harness"
	"banyan/internal/wan"
)

// runPipeline measures optimistic proposal pipelining (Moonshot mode;
// ARCHITECTURE.md, "Optimistic proposal pipelining"): the next leader broadcasts
// its block on the expected parent as soon as the round's rank-0 block
// arrives, before the round certifies. The body transfer — the dominant
// cost at large block sizes on constrained uplinks — overlaps the
// previous round's certificate exchange instead of serializing after it,
// so commit latency drops by up to the body transmission time and block
// rate rises. The experiment runs large blocks over a ~25 MB/s uplink so
// the transfer is worth hiding (baseline and pipelined runs share seed,
// topology, and workload; the only delta is the knob).
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
			opt.OptimisticProposed, opt.OptimisticConfirmed, opt.OptimisticWithdrawn)
	}
	fmt.Println("(the pipelined body broadcast overlaps the previous round's certificate exchange,")
	fmt.Println(" taking up to (n-1)·size/bandwidth of transfer off the post-certificate critical")
	fmt.Println(" path; once the transfer outgrows that ~2-hop window the residual tail returns to")
	fmt.Println(" the critical path and the win shifts from latency to block rate — see the 2MB row)")
	return nil
}
