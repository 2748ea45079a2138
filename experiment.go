package banyan

import (
	"fmt"
	"strings"
	"time"

	"banyan/internal/harness"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// ExperimentConfig describes a simulated wide-area experiment, mirroring
// the paper's methodology (section 9.2). Topology names reference the
// testbeds of Figure 5.
type ExperimentConfig struct {
	// Protocol under test.
	Protocol Protocol
	// N, F, P are the fault parameters; F=0 auto-selects.
	N, F, P int
	// Topology is one of "4dc-global" (section 9.3), "4dc-us" (9.4),
	// "global" (9.5), or "uniform:<duration>" for a synthetic topology
	// with one identical one-way delay (e.g. "uniform:25ms").
	Topology string
	// BlockSizeBytes is the synthetic payload size.
	BlockSizeBytes int
	// Duration is the virtual experiment length (paper: 120s).
	Duration time.Duration
	// Seed drives all randomness deterministically.
	Seed uint64
	// CrashReplicas are crashed at time zero (Figure 6d). HotStuff, which
	// has no pacemaker, refuses them.
	CrashReplicas []int
	// Delta overrides the auto-derived Δ bound (0 = auto). The crash
	// experiment uses it to set the paper's 3-second timeout (Δ = 1.5s).
	Delta time.Duration
}

// ExperimentResult reports one run's measurements.
type ExperimentResult struct {
	// MeanLatency is the average proposal finalization time at proposers.
	MeanLatency time.Duration
	// P50/P95/P99/StdDev/Min/Max describe the latency distribution.
	P50, P95, P99, StdDev, Min, Max time.Duration
	// LatencySamples is the raw distribution (for variance plots).
	LatencySamples []time.Duration
	// ThroughputBps is committed payload bytes per second.
	ThroughputBps float64
	// BlocksCommitted counts committed blocks at the observer.
	BlocksCommitted int64
	// BlockInterval is the mean time between committed blocks.
	BlockInterval time.Duration
	// FastFinalized / SlowFinalized split explicit finalizations by path.
	FastFinalized, SlowFinalized int64
	// DeltaUsed echoes the Δ bound after auto-derivation.
	DeltaUsed time.Duration
}

// RunExperiment executes one simulated experiment. Identical configs give
// identical results.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	topo, err := TopologyByName(cfg.Topology, cfg.N)
	if err != nil {
		return nil, err
	}
	if cfg.N == 0 {
		cfg.N = topo.N()
	}
	hcfg := harness.Config{
		Protocol: cfg.Protocol,
		// F = 0 and P = 0 select their defaults, as everywhere.
		Params:    types.Params{N: cfg.N, F: cfg.F, P: cfg.P},
		Topology:  topo,
		BlockSize: cfg.BlockSizeBytes,
		Duration:  cfg.Duration,
		Delta:     cfg.Delta,
		Seed:      cfg.Seed,
		// Experiments exist to compare protocols, so every side runs
		// without the line-35 relay: Banyan relays headers where the icc
		// baseline relays whole block bodies, a difference in receiver
		// load the paper does not claim.
		NoForwarding: true,
	}
	for _, id := range cfg.CrashReplicas {
		hcfg.Crash = append(hcfg.Crash, types.ReplicaID(id))
	}
	res, err := harness.Run(hcfg)
	if err != nil {
		return nil, err
	}
	return &ExperimentResult{
		MeanLatency:     res.Latency.Mean,
		P50:             res.Latency.P50,
		P95:             res.Latency.P95,
		P99:             res.Latency.P99,
		StdDev:          res.Latency.StdDev,
		Min:             res.Latency.Min,
		Max:             res.Latency.Max,
		LatencySamples:  res.LatencySamples,
		ThroughputBps:   res.ThroughputBps,
		BlocksCommitted: res.BlocksCommitted,
		BlockInterval:   res.BlockInterval,
		FastFinalized:   res.FastFinal,
		SlowFinalized:   res.SlowFinal,
		DeltaUsed:       res.Delta,
	}, nil
}

// TopologyByName resolves the named testbed. n adjusts the replica count
// where the testbed supports it (4dc topologies support 4 or 19; "global"
// is fixed at 19; "uniform:<d>" takes any n).
func TopologyByName(name string, n int) (*wan.Topology, error) {
	switch {
	case name == "" || name == "4dc-global":
		if n == 4 {
			return wan.FourGlobal4()
		}
		return wan.FourGlobal19()
	case name == "4dc-us":
		return wan.FourUS19()
	case name == "global":
		return wan.Global19()
	case strings.HasPrefix(name, "uniform:"):
		d, err := time.ParseDuration(strings.TrimPrefix(name, "uniform:"))
		if err != nil {
			return nil, fmt.Errorf("banyan: bad uniform topology %q: %w", name, err)
		}
		if n <= 0 {
			n = 4
		}
		return wan.Uniform(n, d), nil
	default:
		return nil, fmt.Errorf("banyan: unknown topology %q", name)
	}
}
