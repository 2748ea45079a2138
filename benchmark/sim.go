package main

import (
	"fmt"
	"sort"
	"time"

	"banyan/internal/harness"
	"banyan/internal/obs"
	"banyan/internal/types"
	"banyan/internal/wan"
)

const (
	simName = "sim19_wan"
	// simVirtualPerSecond converts --seconds to simulated seconds: on the
	// reference 2-core box one simulated second of n=19 ed25519 costs about
	// half a second of CPU.
	simVirtualPerSecond = 2
	// simDither is the span over which the simulation's length is spread,
	// by its seed. A fixed length commits the same whole number of blocks
	// on nearly every seed; spreading the cut over two rounds makes the
	// virtual-time rate follow the seed like the latencies do.
	simDither = 250 * time.Millisecond
	// simWarmupVirtual is the length of each warm-up simulation of set-up.
	simWarmupVirtual = 2 * time.Second
	simBlockBytes    = 64 << 10
	// simJitter makes the seed matter to virtual time: without it every
	// seed yields the same schedule and only the keys differ.
	simJitter = 0.05
)

func simConfig(topo *wan.Topology, seed uint64, virtual time.Duration, traced bool) harness.Config {
	return harness.Config{
		Protocol:  harness.Banyan,
		Params:    types.Params{N: 19, F: 6, P: 1},
		Topology:  topo,
		BlockSize: simBlockBytes,
		Duration:  virtual,
		// Set-up's separate simulations already warmed the process, so the
		// measured one excludes nothing: rounds, CPU and bytes span the same
		// interval. (Zero would select a tenth of Duration.)
		Warmup:     time.Nanosecond,
		JitterFrac: simJitter,
		Seed:       seed,
		Scheme:     "ed25519",
		Obs:        traced,
	}
}

// simDetail is everything one run of the simulation workload measured.
type simDetail struct {
	setupS      float64
	constructMs float64 // topology build, median
	warmupMs    float64 // warm-up simulation, median
	cost        windowCost
	liveHeapMB  float64
	res         *harness.Result
	latenciesMs []float64 // sorted, virtual ms
	violations  []string
	phases      phaseLog
}

// virtualFingerprint is what must repeat exactly for one seed.
func virtualFingerprint(r *harness.Result) string {
	return fmt.Sprintf("p50=%d p95=%d blocks=%d msgs=%d bytes=%d",
		r.Latency.P50, r.Latency.P95, r.BlocksCommitted, r.Messages, r.MessageBytes)
}

func runSim(seed uint64, seconds int, traced bool) (*simDetail, error) {
	d := &simDetail{phases: phaseLog{epoch: time.Now()}}
	phase := d.phases.add

	// Set-up, several times: build the topology and run a short simulation
	// of the same seed. The repeats double as the determinism oracle.
	var (
		topo       *wan.Topology
		construct  []float64
		warm       []float64
		total      []float64
		firstPrint string
	)
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		tp, err := wan.FourGlobal19()
		if err != nil {
			return nil, fmt.Errorf("%s: building the topology: %w", simName, err)
		}
		built := time.Now()
		res, err := harness.Run(simConfig(tp, seed, simWarmupVirtual, false))
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up simulation: %w", simName, err)
		}
		end := time.Now()
		construct = append(construct, durMs(built.Sub(t0)))
		warm = append(warm, durMs(end.Sub(built)))
		total = append(total, end.Sub(t0).Seconds())
		phase("setup.construct", t0, built)
		phase("setup.warmup_sim", built, end)
		if fp := virtualFingerprint(res); k == 0 {
			firstPrint = fp
		} else if fp != firstPrint {
			d.violations = append(d.violations,
				fmt.Sprintf("seed %d is not deterministic: %q then %q", seed, firstPrint, fp))
		}
		topo = tp
	}
	d.constructMs, d.warmupMs, d.setupS = median(construct), median(warm), median(total)

	virtual := time.Duration(seconds)*simVirtualPerSecond*time.Second +
		time.Duration(splitmix64(seed)%uint64(simDither))
	heap := startHeapSampler()
	before := takeSnapshot()
	res, err := harness.Run(simConfig(topo, seed, virtual, traced))
	after := takeSnapshot()
	d.liveHeapMB = heap.medianMB()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", simName, err)
	}
	phase("window", before.at, after.at)
	d.res = res
	// One slice: the simulation cannot be cut from outside.
	d.cost = costOf([]snapshot{before, after}, []int64{res.BlocksCommitted}, []int64{res.BlocksCommitted * simBlockBytes})
	for _, l := range res.LatencySamples {
		d.latenciesMs = append(d.latenciesMs, durMs(l))
	}
	sort.Float64s(d.latenciesMs)
	if res.Faults != 0 {
		d.violations = append(d.violations, fmt.Sprintf("%d safety faults", res.Faults))
	}
	if res.BlocksCommitted == 0 {
		d.violations = append(d.violations, "no block committed")
	}
	return d, nil
}

func durMs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (d *simDetail) endToEndValues() values {
	return values{
		"setup_s":               d.setupS,
		"commit_latency_p50_ms": percentile(d.latenciesMs, 50),
		"commit_latency_p95_ms": percentile(d.latenciesMs, 95),
		// Virtual time, like the latencies: whole blocks over the simulated
		// span, so it moves in steps of one block in some 250.
		"committed_mb_per_s": d.res.ThroughputBps / 1e6,
		"alloc_kb_per_round": d.cost.allocKBPerRnd,
		"live_heap_mb":       d.liveHeapMB,
	}
}

func (d *simDetail) result() *runResult {
	return &runResult{
		Correct:    len(d.violations) == 0,
		Attempted:  int64(len(d.latenciesMs)),
		Failed:     0,
		Samples:    len(d.latenciesMs),
		Values:     d.endToEndValues(),
		HostBound:  d.cost.hostBoundValues(),
		Violations: d.violations,
	}
}

// perLayerValues derives the traced report of the simulation workload.
func (d *simDetail) perLayerValues(untraced values, lt layerTimings) (values, budget) {
	res := d.res
	rounds := float64(max(res.BlocksCommitted, 1))
	v := values{
		"client.commit_latency_p99_ms": percentile(d.latenciesMs, 99),
		"setup.construct_ms":           d.constructMs,
		"setup.first_commit_ms":        d.warmupMs,
		"core.rounds_per_s":            rounds / res.Config.Duration.Seconds(),
		"core.final_indirect":          float64(res.IndirectFinal),
		"core.proposal_commit_p50_ms":  durMs(res.Stages[obs.HistCommitLatency].P50),
		"core.proposal_commit_p99_ms":  durMs(res.Stages[obs.HistCommitLatency].P99),
		"crypto.verify_time_p50_us":    durMs(res.Stages[obs.HistVerifyTime].P50) * 1e3,
		"simnet.messages_per_round":    float64(res.Messages) / rounds,
		"simnet.bytes_per_round":       float64(res.MessageBytes) / rounds,
	}
	if explicit := res.FastFinal + res.SlowFinal; explicit > 0 {
		v["core.fast_path_ratio"] = float64(res.FastFinal) / float64(explicit)
	}
	d.cost.fill(v)
	lt.fill(v)
	v["traced.commit_latency_p50_ms"] = percentile(d.latenciesMs, 50)
	v["obs.overhead_pct"] = overheadPct(untraced, d.cost.cpuMsPerRound)

	// Budget. The simulator hands engines message pointers, so no codec
	// runs; every replica signs its block and votes and verifies everyone
	// else's. The engine counters are not reachable through harness.Result,
	// so the calls per round follow from the protocol: one block and two
	// votes (notarize and fast) per replica and round at the fast path.
	const n = 19
	signs := float64(1 + 2*n)
	verifies := float64((1 + 2*n) * (n - 1))
	b := budget{cpuMsPerRound: d.cost.cpuMsPerRound}
	b.add("crypto.sign", signs, lt.signUs)
	b.add("crypto.verify", verifies, lt.verifyUs)
	v["budget.unattributed_pct"] = b.unattributedPct()
	return v, b
}
