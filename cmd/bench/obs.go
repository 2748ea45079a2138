package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"banyan/internal/harness"
	"banyan/internal/obs"
	"banyan/internal/wan"
)

// runObs measures the observability layer itself, in two parts:
//
//   - Overhead: the pipeline experiment's configuration (n=4, 4 global
//     DCs, ~25 MB/s uplink, optimistic proposals) run with instrumentation
//     off and on, same seed and workload. Virtual-time results must be
//     bit-identical — recording never consumes simulated time — so the
//     throughput delta is the correctness check (0%), and the wall-clock
//     delta is the real cost of the histograms and tracer on the hosting
//     machine (the <2% budget).
//
//   - Stage breakdown: one fully-loaded run — dissemination on, every
//     replica behind a WAL, one crash-restart to force body refetches —
//     with observers on, reporting p50/p99 per stage from the merged
//     histograms (commit latency, verify time, WAL flush, dissem fetch,
//     delivery wait) plus the slow-round detector's verdicts.
func runObs(o options) error {
	topo, err := wan.FourGlobal4()
	if err != nil {
		return err
	}
	const bandwidth = 25e6 // bytes/s uplink, matching the pipeline experiment
	const size = 1 << 20

	fmt.Printf("instrumentation overhead, pipeline config (n=4, 4 global DCs, %.0f MB/s, 1MB blocks)\n", bandwidth/1e6)
	base := harness.Config{
		Protocol:            harness.Banyan,
		Params:              harness.ParamsFor(harness.Banyan, 4, 1, 1),
		Topology:            topo,
		BlockSize:           size,
		BandwidthBps:        bandwidth,
		Duration:            o.duration,
		Seed:                o.seed,
		OptimisticProposals: true,
	}
	var offRes, onRes *harness.Result
	var offWall, onWall time.Duration
	printHeader()
	for _, on := range []bool{false, true} {
		cfg := base
		cfg.Obs = on
		start := time.Now()
		res, err := o.run(cfg)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		if on {
			onRes, onWall = res, wall
			printRow("obs-on", res)
		} else {
			offRes, offWall = res, wall
			printRow("obs-off", res)
		}
	}
	tputDelta := 100 * (onRes.ThroughputBps/offRes.ThroughputBps - 1)
	wallDelta := 100 * (onWall.Seconds()/offWall.Seconds() - 1)
	fmt.Printf("\nvirtual-time throughput delta: %+.2f%% (must be 0: recording is invisible to the simulation)\n", tputDelta)
	fmt.Printf("wall-clock delta: %+.1f%% (%.2fs -> %.2fs; the real cost of histograms + tracer)\n",
		wallDelta, offWall.Seconds(), onWall.Seconds())

	// Part 2: a run that exercises every instrumented stage. The WAL is
	// real I/O in virtual time, so hold it to a short run regardless of
	// -duration (same policy as the persist experiment).
	duration := 15 * time.Second
	if o.quick {
		duration = 8 * time.Second
	}
	dir, err := os.MkdirTemp("", "banyan-obs-wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	full := harness.Config{
		Protocol:         harness.Banyan,
		Params:           harness.ParamsFor(harness.Banyan, 4, 1, 1),
		Topology:         topo,
		BlockSize:        size,
		BandwidthBps:     bandwidth,
		Duration:         duration,
		Seed:             o.seed,
		Obs:              true,
		Dissem:           true,
		DissemBatchBytes: size / 16,
		WALDir:           dir,
		// The restarted replica's body store is memory-only: it comes back
		// with journaled digests but no bodies and must fetch them from
		// peers — the path that populates the dissem-fetch histogram.
		Crash:   []harness.CrashSpec{{Replica: 3, At: duration / 3}},
		Restart: []harness.CrashSpec{{Replica: 3, At: 2 * duration / 3}},
	}
	res, err := o.run(full)
	if err != nil {
		return err
	}
	fmt.Printf("\nstage breakdown, fully loaded run (dissem + WAL + crash-restart of replica 3, %s)\n", duration)
	fmt.Printf("%-18s %10s %12s %12s %12s\n", "stage", "samples", "mean(ms)", "p50(ms)", "p99(ms)")
	names := make([]string, 0, len(res.Stages))
	for name := range res.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := res.Stages[name]
		fmt.Printf("%-18s %10d %12.3f %12.3f %12.3f\n",
			name, s.Count, msF(s.Mean), msF(s.P50), msF(s.P99))
	}
	fmt.Printf("slow rounds flagged at the observer (latency > k×EWMA): %d\n", res.SlowRounds)
	fmt.Println("(commit latency / dissem fetch / delivery wait tick in virtual time and are exact;")
	fmt.Println(" verify time and WAL flush are real time on this host. Histogram buckets are log2,")
	fmt.Println(" so quantiles carry ~2x bucket resolution — read them as magnitudes, not microseconds)")

	for _, want := range []string{obs.HistCommitLatency, obs.HistVerifyTime, obs.HistWALFlush, obs.HistDissemFetch} {
		if res.Stages[want].Count == 0 {
			return fmt.Errorf("obs: stage %q recorded no samples", want)
		}
	}

	return nil
}
