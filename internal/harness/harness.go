// Package harness runs the paper's experiments: it assembles a cluster
// of engines of a chosen protocol, places them on a simulated WAN
// topology, drives a timed workload, injects faults, and collects
// exactly the quantities the evaluation section plots — average proposal
// finalization time measured at the proposer, committed bytes per second
// at a non-faulty replica, latency variance, block intervals, and the
// fast/slow path split (paper section 9.2).
//
// It is the one place that knows which engine runs: Banyan replicas are
// assembled by internal/stack like every other host's, and the baselines
// the paper compares against — ICC, HotStuff and Streamlet — are built
// here and run only in simulation.
//
// The one fault it injects is the paper's: replicas crashed from the
// start (Config.Crash, Figures 2 and 6d). Crash-restart, disk loss,
// late joins and reconfiguration are scenarios of their own, driven on
// simnet directly by internal/integration and on the in-process Cluster
// by the root package's tests.
//
// Everything is deterministic: identical Config values (including Seed)
// produce identical results, because the simulator runs in virtual time.
package harness

import (
	"fmt"
	"time"

	"banyan/internal/crypto"
	"banyan/internal/hotstuff"
	"banyan/internal/icc"
	"banyan/internal/membership"
	"banyan/internal/mempool"
	"banyan/internal/metrics"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/stack"
	"banyan/internal/streamlet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// Protocol selects the consensus engine under test.
type Protocol string

// The four protocols of the paper's evaluation, plus Banyan with the fast
// path disabled (the ablation).
const (
	Banyan       Protocol = "banyan"
	BanyanNoFast Protocol = "banyan-nofast"
	ICC          Protocol = "icc"
	HotStuff     Protocol = "hotstuff"
	Streamlet    Protocol = "streamlet"
)

// IsBanyan reports whether p runs the Banyan core engine, assembled by
// internal/stack. The baselines are single-epoch, inline-payload engines.
func (p Protocol) IsBanyan() bool { return p == Banyan || p == BanyanNoFast }

// Protocols lists the paper's four evaluated protocols in report order.
func Protocols() []Protocol { return []Protocol{Banyan, ICC, HotStuff, Streamlet} }

// Params validates and normalizes (n, f, p) for a protocol: Banyan
// enforces n >= max(3f+2p-1, 3f+1) with 1 <= p <= f; the baselines
// enforce n >= 3f+1.
func Params(proto Protocol, n, f, p int) (types.Params, error) {
	switch proto {
	case Banyan, BanyanNoFast:
		pr := types.Params{N: n, F: f, P: p}
		if err := pr.Validate(); err != nil {
			return types.Params{}, err
		}
		if p < 1 && proto == Banyan {
			return types.Params{}, fmt.Errorf("banyan: p must be at least 1")
		}
		return pr, nil
	case ICC, HotStuff, Streamlet:
		if n < 3*f+1 {
			return types.Params{}, fmt.Errorf("banyan: n = %d below 3f+1 for f = %d", n, f)
		}
		return types.Params{N: n, F: f}, nil
	default:
		return types.Params{}, fmt.Errorf("banyan: unknown protocol %q", proto)
	}
}

// DefaultParams picks the largest tolerable f for n replicas: for Banyan
// the largest f compatible with the given p; for baselines f = (n-1)/3.
func DefaultParams(proto Protocol, n, p int) (types.Params, error) {
	if !proto.IsBanyan() {
		return types.Params{N: n, F: types.MaxFaultyFor(n)}, nil
	}
	return types.BanyanParams(n, max(p, 1))
}

// Config describes one experiment run.
type Config struct {
	// Protocol selects the engine; empty picks Banyan.
	Protocol Protocol
	// Params carries n, f and (for Banyan) p.
	Params types.Params
	// Topology places the replicas; required.
	Topology *wan.Topology
	// BlockSize is the synthetic payload size in bytes (the paper's load
	// knob, section 9.2).
	BlockSize int
	// Duration is the experiment's virtual running time (paper: 120 s).
	Duration time.Duration
	// Warmup excludes the initial ramp from all statistics.
	Warmup time.Duration
	// Delta is the Δ bound used for proposal/notarization delays. Zero
	// auto-derives it from the topology and block size, mirroring how the
	// paper tunes delays above the undisrupted message delay.
	Delta time.Duration
	// BandwidthBps is each replica's uplink; zero selects 625 MB/s (the
	// 5 Gbit/s burst bandwidth of the paper's t3.large instances).
	BandwidthBps float64
	// ProcRateBps / ProcFixed model receiver-side message processing
	// (deserialization, hashing, signature verification) on the testbed's
	// 2-vCPU hosts; see simnet.Options. Zero selects defaults; negative
	// ProcRateBps disables the model.
	ProcRateBps float64
	ProcFixed   time.Duration
	// JitterFrac adds pseudo-random per-message jitter.
	JitterFrac float64
	// Seed drives all randomness; identical configs with identical seeds
	// produce identical results.
	Seed uint64
	// Crash lists replicas that are down for the whole run (Figures 2 and
	// 6d).
	Crash []types.ReplicaID
	// NoForwarding disables tip forwarding in the Banyan/ICC engines (the
	// forwarding ablation; see ARCHITECTURE.md, "Header relays and body
	// pulls").
	NoForwarding bool
	// Dissem routes payloads through the batch-dissemination layer
	// (internal/dissem): proposals commit batch digests, bodies travel
	// out-of-band, and delivery of finalized blocks gates on body
	// availability. Banyan protocols only.
	Dissem bool
	// DissemBatchBytes is the dissemination batch cut size (zero: 64 KiB).
	DissemBatchBytes int
	// Scheme selects the signature scheme ("hmac" default, "ed25519").
	Scheme string
	// Obs wires an obs.Observer into every Banyan engine, and reports the
	// merged stage-latency breakdown in Result.Stages. Virtual-time stages
	// (commit latency, dissem fetch, delivery wait) are exact; the verify
	// stage is real time on the host the simulation ran on. Recording
	// consumes no virtual time, so the run's results are the same with
	// Obs on or off.
	Obs bool
}

// Result aggregates one run's measurements.
type Result struct {
	Config Config

	// Latency is the proposal finalization time distribution, measured at
	// each block's proposer from its proposal broadcast, over the
	// post-warmup window.
	Latency metrics.Summary
	// LatencySamples retains the raw series for variance plots (Fig. 6c).
	LatencySamples []time.Duration

	// ThroughputBps is committed payload bytes per second at the observer
	// (lowest-ID non-crashed replica) over the post-warmup window.
	ThroughputBps float64
	// BlocksCommitted is the observer's committed block count post-warmup.
	BlocksCommitted int64
	// BlockInterval is the observer's mean time between committed blocks.
	BlockInterval time.Duration

	// FastFinal / SlowFinal / IndirectFinal split the observer's explicit
	// finalizations by path.
	FastFinal, SlowFinal, IndirectFinal int64

	// Counters sums every replica's engine counters (protocol.Engine's
	// Metrics) per key across the cluster: payloads_carried,
	// settled_dropped, sigs_verified and the rest.
	Counters map[string]int64

	// Faults counts safety faults across the cluster (must be zero).
	Faults int
	// Messages / MessageBytes count total network traffic, and Traffic
	// splits it by wire kind, indexed by types.MsgKind.
	Messages, MessageBytes int64
	Traffic                [types.NumMsgKinds]simnet.KindStats
	// MaxProposalWire is the largest leader-proposal wire size observed
	// post-warmup. Under Dissem this stays near-constant as BlockSize grows
	// (proposals carry digests, not bodies) — the decoupling
	// TestDissemDecouplesProposalWire asserts.
	MaxProposalWire int

	// Delta echoes the Δ actually used (after auto-derivation).
	Delta time.Duration

	// Stages holds the per-stage latency breakdown, merged across every
	// replica's histograms, keyed by the obs.Hist* names (empty without
	// Config.Obs; stages with no samples are omitted).
	Stages map[string]StageStats
}

// StageStats summarizes one stage histogram.
type StageStats struct {
	Count          int64
	Mean, P50, P99 time.Duration
}

// autoDelta derives the Δ bound for a topology and block size: the largest
// one-way delay, inflated for jitter, plus the sender-side transmission
// time of a full block broadcast, plus the receiver-side processing of
// n−1 block-sized messages (an upper bound for Banyan, whose relays carry
// headers; the icc baseline relays bodies), plus a fixed margin. This
// matches the paper's methodology of setting delays "larger than the
// message delay experienced without network disruptions" so exactly one
// block is proposed per round in fault-free runs.
func autoDelta(topo *wan.Topology, blockSize int, bandwidthBps, procRateBps float64,
	procFixed time.Duration) time.Duration {
	d := topo.MaxOneWay()
	d += d / 4 // jitter headroom
	n := topo.N()
	if bandwidthBps > 0 {
		tx := float64(blockSize) * float64(n-1) / bandwidthBps
		d += time.Duration(tx * float64(time.Second))
	}
	if procRateBps > 0 {
		proc := float64(blockSize) / procRateBps * float64(time.Second)
		d += time.Duration(proc*float64(n-1)) + time.Duration(n-1)*procFixed
	}
	return d + 5*time.Millisecond
}

const (
	defaultBandwidth = 625e6 // 5 Gbit/s in bytes/s
	// defaultProcRate / defaultProcFixed approximate the Bamboo stack's
	// per-message receive cost (gob decode + hashing + signature checks)
	// on a 2-vCPU t3.large.
	defaultProcRate  = 100e6 // bytes/s
	defaultProcFixed = 150 * time.Microsecond
)

// fill resolves the simulation's own defaults — run length, link and
// receiver models, Δ from the topology — and checks the cluster against
// the topology; the knobs shared with the other hosts are filled and
// checked by stack.Options.Fill.
func (c *Config) fill() error {
	if c.Topology == nil {
		return fmt.Errorf("harness: topology is required")
	}
	if c.Params.N != c.Topology.N() {
		return fmt.Errorf("harness: %d replicas but topology has %d", c.Params.N, c.Topology.N())
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.Warmup <= 0 || c.Warmup >= c.Duration {
		c.Warmup = c.Duration / 10
	}
	if c.BandwidthBps == 0 {
		c.BandwidthBps = defaultBandwidth
	}
	if c.ProcRateBps == 0 {
		c.ProcRateBps = defaultProcRate
	} else if c.ProcRateBps < 0 {
		c.ProcRateBps = 0
	}
	if c.ProcFixed == 0 {
		c.ProcFixed = defaultProcFixed
	} else if c.ProcFixed < 0 {
		c.ProcFixed = 0
	}
	if c.Delta == 0 {
		c.Delta = autoDelta(c.Topology, c.BlockSize, c.BandwidthBps, c.ProcRateBps, c.ProcFixed)
	}
	return nil
}

// Options is the one mapping from a filled Config to the stack's options
// (see banyan.ClusterConfig.options; exported so the root package's
// reflection test checks all three mappings in one place); the
// simulation's own fields — which engine runs, the topology, link and
// receiver models, run length and crashed replicas — are read by Run.
// Of the protocol, the stack learns only whether Banyan runs without its
// fast path.
func (c Config) Options() stack.Options {
	o := stack.Options{
		N:                c.Params.N,
		F:                c.Params.F,
		P:                c.Params.P,
		Delta:            c.Delta,
		DisableFastPath:  c.Protocol == BanyanNoFast,
		BlockBytes:       c.BlockSize,
		Scheme:           c.Scheme,
		Seed:             c.Seed,
		NoForwarding:     c.NoForwarding,
		Dissem:           c.Dissem,
		DissemBatchBytes: c.DissemBatchBytes,
		Obs:              c.Obs,
	}
	if o.Scheme == "" {
		o.Scheme = "hmac"
	}
	return o
}

// Run executes one experiment.
func Run(cfg Config) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	var (
		engines   []protocol.Engine
		survivors []stack.Survivors
		err       error
	)
	if cfg.Protocol == "" || cfg.Protocol.IsBanyan() {
		engines, survivors, err = cfg.banyan()
	} else {
		engines, err = cfg.baseline()
	}
	if err != nil {
		return nil, err
	}

	// The observer is the lowest-ID replica that is up.
	crashed := make(map[types.ReplicaID]bool, len(cfg.Crash))
	for _, id := range cfg.Crash {
		crashed[id] = true
	}
	observer := types.ReplicaID(0)
	for crashed[observer] {
		observer++
	}
	if int(observer) >= cfg.Params.N {
		return nil, fmt.Errorf("harness: all replicas crashed")
	}

	var (
		warmupEnd       = simnet.Epoch.Add(cfg.Warmup)
		proposedAt      = make(map[types.BlockID]time.Time)
		latency         = metrics.NewSeries()
		throughput      = metrics.NewThroughput(cfg.Duration - cfg.Warmup)
		faultErrors     []error
		maxProposalWire int
	)
	hooks := simnet.Hooks{
		OnBroadcast: func(node types.ReplicaID, at time.Time, msg types.Message) {
			m, ok := msg.(*types.Proposal)
			if !ok || m.Relayed || m.Block == nil || m.Block.Proposer != node || at.Before(warmupEnd) {
				return
			}
			if w := types.WireSize(m); w > maxProposalWire {
				maxProposalWire = w
			}
			proposedAt[m.Block.ID()] = at
		},
		OnCommit: func(node types.ReplicaID, at time.Time, c protocol.Commit) {
			for _, b := range c.Blocks {
				if b.Proposer == node {
					if t, ok := proposedAt[b.ID()]; ok {
						latency.Add(at.Sub(t))
						delete(proposedAt, b.ID())
					}
				}
				if node == observer && !at.Before(warmupEnd) {
					throughput.Observe(b.Payload.Size())
				}
			}
		},
		OnFault: func(node types.ReplicaID, at time.Time, err error) {
			faultErrors = append(faultErrors, fmt.Errorf("replica %d at %s: %w", node, at.Sub(simnet.Epoch), err))
		},
	}

	net, err := simnet.New(engines, simnet.Options{
		Topology:     cfg.Topology,
		BandwidthBps: cfg.BandwidthBps,
		ProcRateBps:  cfg.ProcRateBps,
		ProcFixed:    cfg.ProcFixed,
		JitterFrac:   cfg.JitterFrac,
		Seed:         cfg.Seed,
	}, hooks)
	if err != nil {
		return nil, err
	}
	for _, id := range cfg.Crash {
		net.CrashAt(id, 0)
	}
	net.Run(cfg.Duration)

	counters := map[string]int64{}
	for i := range engines {
		for k, v := range net.Engine(types.ReplicaID(i)).Metrics() {
			counters[k] += v
		}
	}

	obsMetrics := net.Engine(observer).Metrics()
	stats := net.Stats()
	res := &Result{
		Config:          cfg,
		Latency:         latency.Summarize(),
		LatencySamples:  latency.Samples(),
		ThroughputBps:   throughput.BytesPerSecond(),
		BlocksCommitted: throughput.Blocks,
		BlockInterval:   throughput.BlockInterval(),
		FastFinal:       obsMetrics["final_fast"],
		SlowFinal:       obsMetrics["final_slow"],
		IndirectFinal:   obsMetrics["final_indirect"],
		Counters:        counters,
		Faults:          len(faultErrors),
		Messages:        stats.Messages,
		MessageBytes:    stats.Bytes,
		Traffic:         stats.ByKind,
		MaxProposalWire: maxProposalWire,
		Delta:           cfg.Delta,
	}
	if cfg.Obs {
		res.Stages = mergeStages(survivors)
	}
	if len(faultErrors) > 0 {
		return res, fmt.Errorf("harness: safety faults: %v", faultErrors)
	}
	return res, nil
}

// payloads is replica i's synthetic payload source.
func (c Config) payloads(i int) *mempool.Synthetic {
	return mempool.NewSynthetic(c.BlockSize, c.Seed^uint64(i)<<32, false)
}

// banyan assembles the cluster through the replica stack, as every other
// host does.
func (c Config) banyan() ([]protocol.Engine, []stack.Survivors, error) {
	opts, err := c.Options().Fill()
	if err != nil {
		return nil, nil, err
	}
	keyring, signers, err := opts.Keys()
	if err != nil {
		return nil, nil, err
	}
	survivors := make([]stack.Survivors, opts.N)
	engines := make([]protocol.Engine, opts.N)
	for i := range engines {
		survivors[i] = opts.NewSurvivors(keyring, signers[i], c.payloads(i), "", nil)
		st, err := stack.Build(types.ReplicaID(i), opts, survivors[i])
		if err != nil {
			return nil, nil, err
		}
		engines[i] = st.Hosted
	}
	return engines, survivors, nil
}

// baseline assembles a cluster of one of the paper's baselines. They run
// on the genesis validator set, which gives them their quorums and the
// round-robin leader schedule Banyan uses, and have no verification
// pipeline, dissemination, log or observer.
func (c Config) baseline() ([]protocol.Engine, error) {
	if c.Dissem {
		return nil, fmt.Errorf("banyan: Dissem requires a Banyan protocol, got %q", c.Protocol)
	}
	// HotStuff has no pacemaker: a crashed leader would stall it for ever.
	if c.Protocol == HotStuff && len(c.Crash) > 0 {
		return nil, fmt.Errorf("banyan: Crash is not supported by %q, which has no pacemaker", c.Protocol)
	}
	f := c.Params.F
	if f == 0 {
		f = types.MaxFaultyFor(c.Params.N)
	}
	params, err := Params(c.Protocol, c.Params.N, f, 0)
	if err != nil {
		return nil, err
	}
	scheme, err := crypto.SchemeByName(c.Options().Scheme)
	if err != nil {
		return nil, err
	}
	keyring, signers := crypto.GenerateCluster(scheme, params.N, c.Seed)
	set, err := membership.Genesis(keyring, params)
	if err != nil {
		return nil, err
	}
	engines := make([]protocol.Engine, params.N)
	for i := range engines {
		id := types.ReplicaID(i)
		switch c.Protocol {
		case ICC:
			engines[i], err = icc.New(icc.Config{
				Set:               set,
				Self:              id,
				Keyring:           keyring,
				Signer:            signers[i],
				Payloads:          c.payloads(i),
				Delta:             c.Delta,
				DisableForwarding: c.NoForwarding,
			})
		case HotStuff:
			engines[i], err = hotstuff.New(hotstuff.Config{
				Set:      set,
				Self:     id,
				Keyring:  keyring,
				Signer:   signers[i],
				Payloads: c.payloads(i),
			})
		case Streamlet:
			engines[i], err = streamlet.New(streamlet.Config{
				Set:      set,
				Self:     id,
				Keyring:  keyring,
				Signer:   signers[i],
				Payloads: c.payloads(i),
				// Streamlet is clocked on the pessimistic synchrony bound Δ
				// rather than actual delays (it is not optimistically
				// responsive), so its epoch gets the protocol-prescribed 2Δ
				// with Δ set to twice the measured bound — the safety margin
				// any real deployment needs for a parameter that, if
				// undershot, halts progress.
				EpochDuration: 4 * c.Delta,
			})
		}
		if err != nil {
			return nil, err
		}
	}
	return engines, nil
}

// mergeStages folds every replica's stage histograms into one summary
// per stage name, skipping stages nothing recorded into.
func mergeStages(survivors []stack.Survivors) map[string]StageStats {
	merged := map[string]metrics.HistSnapshot{}
	for _, sv := range survivors {
		for name, h := range sv.Obs.Registry.Histograms() {
			s := merged[name]
			s.Merge(h)
			merged[name] = s
		}
	}
	out := make(map[string]StageStats, len(merged))
	for name, s := range merged {
		if s.Count == 0 {
			continue
		}
		out[name] = StageStats{
			Count: s.Count,
			Mean:  s.Mean(),
			P50:   s.Quantile(0.50),
			P99:   s.Quantile(0.99),
		}
	}
	return out
}

// ParamsFor returns the fault parameters each protocol uses at cluster
// size n: Banyan takes (f, p) per the caller; the baselines use the
// classic f = (n-1)/3 bound with p ignored.
func ParamsFor(proto Protocol, n, f, p int) types.Params {
	if proto.IsBanyan() {
		return types.Params{N: n, F: f, P: p}
	}
	return types.Params{N: n, F: (n - 1) / 3, P: 0}
}
