// Package harness runs the paper's experiments: it assembles a cluster
// of engines of a chosen protocol, places them on a simulated WAN
// topology, drives a timed workload, injects faults, and collects
// exactly the quantities the evaluation section plots — average proposal
// finalization time measured at the proposer, committed bytes per second
// at a non-faulty replica, latency variance, block intervals, and the
// fast/slow path split (paper section 9.2).
//
// Fault injection covers permanent crashes (Config.Crash, Figure 6d)
// and crash-restarts: with Config.WALDir every simulated replica runs
// behind a write-ahead log (internal/wal), and Config.Restart rebuilds
// a crashed replica from its journal mid-run — the cmd/bench "persist"
// experiment and the crash-restart integration tests drive this path.
//
// Everything is deterministic: identical Config values (including Seed)
// produce identical results, because the simulator runs in virtual time
// and the WAL uses per-record fsync under the harness so the durable
// prefix never depends on wall-clock flush timing.
package harness

import (
	"fmt"
	"os"
	"time"

	"banyan/internal/crypto"
	"banyan/internal/membership"
	"banyan/internal/mempool"
	"banyan/internal/metrics"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/stack"
	"banyan/internal/types"
	"banyan/internal/wal"
	"banyan/internal/wan"
)

// Protocol selects the consensus engine under test.
type Protocol = stack.Protocol

// The four protocols of the paper's evaluation, plus the fast-path-ablated
// Banyan variant.
const (
	Banyan       = stack.Banyan
	BanyanNoFast = stack.BanyanNoFast
	ICC          = stack.ICC
	HotStuff     = stack.HotStuff
	Streamlet    = stack.Streamlet
)

// Protocols lists the paper's four evaluated protocols in report order.
func Protocols() []Protocol { return []Protocol{Banyan, ICC, HotStuff, Streamlet} }

// Config describes one experiment run.
type Config struct {
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
	// ViewTimeout is HotStuff's pacemaker timeout; zero auto-derives.
	ViewTimeout time.Duration
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
	// Crash lists replicas crashed at given times (Figure 6d).
	Crash []CrashSpec
	// Restart lists crash-restarts: at the given time the replica is
	// rebuilt from its write-ahead log and rejoins (crash it first via
	// Crash). Requires WALDir. A spec with DiskLoss wipes the replica's
	// log directory first, so it restarts with no durable state and must
	// recover its chain entirely from peers (snapshot state sync).
	Restart []CrashSpec
	// Join lists replicas held out of the initial start that boot cold at
	// the given time, having observed nothing — the fresh-join scenario.
	Join []CrashSpec
	// MaxN is the number of replica identities provisioned (keys, engines,
	// topology slots); zero means Params.N. Identities in [N, MaxN) are
	// not genesis members: they run as non-voting observers (or join late
	// via Join) until a Reconfig spec admits them. Banyan protocols only.
	MaxN int
	// Reconfig schedules validator-set changes: at the given virtual time
	// the change is handed to every replica's reconfiguration slot, the
	// next leader proposes it, and it activates the round after its block
	// finalizes. Banyan protocols only.
	Reconfig []ReconfigSpec
	// WALDir, when non-empty, runs every replica behind a write-ahead
	// log (one subdirectory per replica) with per-record fsync, so
	// executions stay deterministic and Restart can replay. The WAL is a
	// real-time side effect — it slows wall-clock runs, never changes
	// virtual-time results.
	WALDir string
	// NoForwarding disables tip forwarding in the Banyan/ICC engines (the
	// forwarding ablation; see DESIGN.md section 6).
	NoForwarding bool
	// OptimisticProposals enables Moonshot-style proposal pipelining in the
	// Banyan engines: the next leader broadcasts its block on the expected
	// parent before the round certifies, withdrawing on mismatch (see
	// core.Config.OptimisticProposals). The cmd/bench "pipeline" experiment
	// compares latency and throughput with this on and off.
	OptimisticProposals bool
	// Dissem routes payloads through the batch-dissemination layer
	// (internal/dissem): proposals commit batch digests, bodies travel
	// out-of-band, and delivery of finalized blocks gates on body
	// availability. Banyan protocols only.
	Dissem bool
	// DissemBatchBytes is the dissemination batch cut size (zero: 64 KiB).
	DissemBatchBytes int
	// DissemInlineMax bounds the inline tail a proposal carries alongside
	// its batch refs (zero: everything rides in batches).
	DissemInlineMax int
	// DeepPrune evicts finalized block bodies below the Banyan engines'
	// prune floor, leaving each replica holding only a bounded window of
	// the chain — the shape that forces rejoining replicas through
	// snapshot state sync rather than block-by-block catch-up.
	DeepPrune bool
	// PruneKeep / PruneInterval override the Banyan engines' pruning
	// cadence (zero keeps the engine defaults).
	PruneKeep     types.Round
	PruneInterval types.Round
	// Scheme selects the signature scheme ("hmac" default, "ed25519").
	Scheme string
	// Verify tunes the Banyan engines' signature-verification pipeline
	// (worker-pool size and verified-signature cache capacity). The
	// simulator's virtual clock is independent of real compute, so these
	// knobs change wall-clock speed of a run, never its measured results.
	Verify crypto.VerifyConfig
	// Obs wires an obs.Observer into every Banyan engine, and reports the
	// merged stage-latency breakdown in Result.Stages. Virtual-time stages
	// (commit latency, dissem fetch, delivery wait) are exact; real-time
	// stages (verify, WAL flush) reflect the host the simulation ran on.
	// Observers survive mid-run crash-restarts, so histograms span a
	// replica's lives.
	Obs bool
}

// CrashSpec crashes a replica at a point in virtual time. In a Restart
// spec, DiskLoss wipes the replica's WAL directory before the rebuild.
type CrashSpec struct {
	Replica  types.ReplicaID
	At       time.Duration
	DiskLoss bool
}

// ReconfigSpec schedules one validator-set change at a point in virtual
// time. Op is types.ConfigAdd or types.ConfigRemove; for an add, the
// replica's provisioned key is attached automatically.
type ReconfigSpec struct {
	Replica types.ReplicaID
	At      time.Duration
	Op      types.ConfigOp
}

// Result aggregates one run's measurements.
type Result struct {
	Config Config

	// Latency is the proposal finalization time distribution, measured at
	// each block's proposer, over the post-warmup window. The clock starts
	// when the proposal becomes protocol-active: at its broadcast normally,
	// or — under OptimisticProposals — at the confirming fast vote, since
	// the early credential-less body broadcast is a transport prefetch no
	// replica can vote on (and which may still be withdrawn). Pipelining's
	// overlap win additionally shows up in BlockInterval/ThroughputBps.
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

	// OptimisticProposed / OptimisticConfirmed / OptimisticWithdrawn sum
	// the optimistic-pipelining counters across the cluster (zero unless
	// Config.OptimisticProposals).
	OptimisticProposed, OptimisticConfirmed, OptimisticWithdrawn int64

	// Faults counts safety faults across the cluster (must be zero).
	Faults int
	// RestartReplayed sums the WAL records restarted replicas replayed
	// (zero without Restart specs).
	RestartReplayed int64
	// Messages / MessageBytes count total network traffic.
	Messages, MessageBytes int64
	// MaxProposalWire is the largest leader-proposal wire size observed
	// post-warmup. Under Dissem this stays near-constant as BlockSize grows
	// (proposals carry digests, not bodies) — the decoupling the cmd/bench
	// "dissem" experiment asserts.
	MaxProposalWire int

	// Epoch is the observer's final validator-set epoch and EpochChanges
	// the finalized ConfigChanges it applied (zero without Reconfig).
	Epoch        uint32
	EpochChanges int64
	// EpochActivations lists the activation round of each post-genesis
	// epoch at the observer, ascending.
	EpochActivations []types.Round
	// RoundLatencies pairs each Latency sample with the round of the block
	// it measured, letting experiments localize latency around an epoch
	// boundary (the cmd/bench "reconfig" blip measurement).
	RoundLatencies []RoundLatency
	// Delta echoes the Δ actually used (after auto-derivation).
	Delta time.Duration

	// Stages holds the per-stage latency breakdown, merged across every
	// replica's histograms, keyed by the obs.Hist* names (empty without
	// Config.Obs; stages with no samples are omitted).
	Stages map[string]StageStats
	// SlowRounds counts rounds the observer's slow-round detector flagged
	// (commit latency above k×EWMA; zero without Config.Obs).
	SlowRounds int
}

// StageStats summarizes one stage histogram.
type StageStats struct {
	Count          int64
	Mean, P50, P99 time.Duration
}

// RoundLatency is one proposal-finalization latency sample tagged with
// the round of the block it measured.
type RoundLatency struct {
	Round   types.Round
	Latency time.Duration
}

// AutoDelta derives the Δ bound for a topology and block size: the largest
// one-way delay, inflated for jitter, plus the sender-side transmission
// time of a full block broadcast, plus the receiver-side processing of
// n−1 block-sized messages (an upper bound for Banyan, whose relays carry
// headers; the icc baseline relays bodies), plus a fixed margin. This
// matches the paper's methodology of setting delays "larger than the
// message delay experienced without network disruptions" so exactly one
// block is proposed per round in fault-free runs.
func AutoDelta(topo *wan.Topology, blockSize int, bandwidthBps, procRateBps float64,
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
// receiver models, Δ from the topology — and checks the schedule against
// the topology; the knobs shared with the other hosts are filled and
// checked by stack.Options.Fill.
func (c *Config) fill() error {
	if c.Topology == nil {
		return fmt.Errorf("harness: topology is required")
	}
	if c.MaxN == 0 {
		c.MaxN = c.Params.N
	}
	if c.MaxN != c.Topology.N() {
		return fmt.Errorf("harness: %d provisioned replicas but topology has %d", c.MaxN, c.Topology.N())
	}
	if len(c.Reconfig) > 0 && !c.Protocol.IsBanyan() {
		return fmt.Errorf("harness: reconfiguration requires a Banyan protocol, got %q", c.Protocol)
	}
	for _, r := range c.Reconfig {
		if !r.Op.Valid() {
			return fmt.Errorf("harness: invalid reconfig op %d", r.Op)
		}
		if int(r.Replica) >= c.MaxN {
			return fmt.Errorf("harness: reconfig names replica %d but only %d are provisioned", r.Replica, c.MaxN)
		}
	}
	if len(c.Restart) > 0 && c.WALDir == "" {
		return fmt.Errorf("harness: Restart requires WALDir")
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
		c.Delta = AutoDelta(c.Topology, c.BlockSize, c.BandwidthBps, c.ProcRateBps, c.ProcFixed)
	}
	return nil
}

// Options is the one mapping from a filled Config to the stack's options
// (see banyan.ClusterConfig.options; exported so the root package's
// reflection test checks all three mappings in one place); the
// simulation's own fields — the topology, link and receiver models, run
// length and fault schedule — are read by Run.
func (c Config) Options() stack.Options {
	o := stack.Options{
		Protocol:    c.Protocol,
		N:           c.Params.N,
		F:           c.Params.F,
		P:           c.Params.P,
		MaxN:        c.MaxN,
		Delta:       c.Delta,
		ViewTimeout: c.ViewTimeout,
		// Streamlet is clocked on the pessimistic synchrony bound Δ rather
		// than actual delays (it is not optimistically responsive), so its
		// epoch gets the protocol-prescribed 2Δ with Δ set to twice the
		// measured bound — the safety margin any real deployment needs for
		// a parameter that, if undershot, halts progress.
		EpochDuration:       4 * c.Delta,
		BlockBytes:          c.BlockSize,
		Scheme:              c.Scheme,
		Seed:                c.Seed,
		Verify:              c.Verify,
		NoForwarding:        c.NoForwarding,
		OptimisticProposals: c.OptimisticProposals,
		DeepPrune:           c.DeepPrune,
		PruneKeep:           c.PruneKeep,
		PruneInterval:       c.PruneInterval,
		Dissem:              c.Dissem,
		DissemBatchBytes:    c.DissemBatchBytes,
		DissemInlineMax:     c.DissemInlineMax,
		WALDir:              c.WALDir,
		// Per-record fsync keeps the durable prefix — and therefore the
		// replayed execution — independent of wall-clock flush timing, and
		// an uncheckpointed log makes a restart replay the whole run.
		WALSync:             wal.SyncPolicy{EveryRecord: true},
		WALCheckpointRounds: -1,
		Obs:                 c.Obs,
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
	opts, err := cfg.Options().Fill()
	if err != nil {
		return nil, err
	}
	keyring, signers, err := opts.Keys()
	if err != nil {
		return nil, err
	}
	// Each replica's survivors — synthetic payload source, log directory,
	// reconfiguration slot, observer — span its crash-restarts: a pending
	// change outlives one, and stage histograms accumulate across it.
	survivors := make([]stack.Survivors, opts.MaxN)
	engines := make([]protocol.Engine, opts.MaxN)
	// mkEngine builds (or rebuilds, for restarts) one replica's stack and
	// returns the engine the simulator drives.
	mkEngine := func(i types.ReplicaID) (protocol.Engine, error) {
		st, err := stack.Build(i, opts, survivors[i])
		if err != nil {
			return nil, err
		}
		return st.Hosted, nil
	}
	for i := range engines {
		id := types.ReplicaID(i)
		src := mempool.NewSynthetic(cfg.BlockSize, cfg.Seed^uint64(i)<<32, false)
		survivors[i] = opts.NewSurvivors(keyring, signers[i], src, opts.ReplicaWALDir(id), nil)
		if engines[i], err = mkEngine(id); err != nil {
			return nil, err
		}
	}

	// The observer must be a replica with the full run's history: not
	// crashed, and not a late joiner (whose commit stream starts at its
	// adopted snapshot, mid-run).
	crashedSet := make(map[types.ReplicaID]bool, len(cfg.Crash)+len(cfg.Join))
	for _, c := range cfg.Crash {
		crashedSet[c.Replica] = true
	}
	for _, j := range cfg.Join {
		crashedSet[j.Replica] = true
	}
	observer := types.ReplicaID(0)
	for crashedSet[observer] {
		observer++
	}
	if int(observer) >= cfg.Params.N {
		return nil, fmt.Errorf("harness: all replicas crashed")
	}

	// proposalClock times one own proposal. An optimistic (credential-less
	// rank-0) broadcast records awaitingConfirm: the clock restarts at the
	// proposer's confirming fast vote, the moment the block becomes
	// voteable (see Result.Latency).
	type proposalClock struct {
		at              time.Time
		proposer        types.ReplicaID
		awaitingConfirm bool
	}
	var (
		warmupEnd       = simnet.Epoch.Add(cfg.Warmup)
		proposedAt      = make(map[types.BlockID]proposalClock)
		latency         = metrics.NewSeries()
		throughput      = metrics.NewThroughput(cfg.Duration - cfg.Warmup)
		faultErrors     []error
		maxProposalWire int
		roundLatencies  []RoundLatency
	)
	hooks := simnet.Hooks{
		OnBroadcast: func(node types.ReplicaID, at time.Time, msg types.Message) {
			switch m := msg.(type) {
			case *types.Proposal:
				if m.Relayed || m.Block == nil || m.Block.Proposer != node {
					return
				}
				if !at.Before(warmupEnd) {
					if w := m.WireSize(); w > maxProposalWire {
						maxProposalWire = w
					}
					proposedAt[m.Block.ID()] = proposalClock{
						at:              at,
						proposer:        node,
						awaitingConfirm: m.Block.Rank == 0 && m.FastVote == nil,
					}
				}
			case *types.VoteMsg:
				for _, v := range m.Votes {
					if v.Kind != types.VoteFast || v.Voter != node {
						continue
					}
					if pc, ok := proposedAt[v.Block]; ok && pc.awaitingConfirm && pc.proposer == node {
						proposedAt[v.Block] = proposalClock{at: at, proposer: node}
					}
				}
			}
		},
		OnCommit: func(node types.ReplicaID, at time.Time, c protocol.Commit) {
			for _, b := range c.Blocks {
				if b.Proposer == node {
					if pc, ok := proposedAt[b.ID()]; ok {
						d := at.Sub(pc.at)
						latency.Add(d)
						roundLatencies = append(roundLatencies, RoundLatency{Round: b.Round, Latency: d})
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
	for _, c := range cfg.Crash {
		net.CrashAt(c.Replica, c.At)
	}
	for _, j := range cfg.Join {
		net.JoinAt(j.Replica, j.At)
	}
	for _, rc := range cfg.Reconfig {
		change := types.ConfigChange{Op: rc.Op, Replica: rc.Replica}
		if rc.Op == types.ConfigAdd {
			change.PubKey = keyring.PublicKey(rc.Replica)
		}
		net.At(rc.At, func(time.Time) {
			// Hand the change to every slot: whichever replica leads first
			// proposes it, re-application is a deterministic no-op, and all
			// slots clear when the finalized change is observed.
			for _, s := range survivors {
				s.Reconfig.Propose(change)
			}
		})
	}
	for _, r := range cfg.Restart {
		id, diskLoss := r.Replica, r.DiskLoss
		net.RestartAt(id, r.At, func(time.Time) protocol.Engine {
			// Crash the old recorder (dropping any unsynced tail — none
			// under per-record fsync), then recover from its directory.
			if rec, ok := net.Engine(id).(*wal.Recorder); ok {
				rec.Crash()
			}
			if diskLoss {
				// The disk died with the process: the replica comes back
				// with an empty log and must resync its chain from peers.
				if err := os.RemoveAll(survivors[id].WALDir); err != nil {
					faultErrors = append(faultErrors, fmt.Errorf("replica %d disk wipe: %w", id, err))
					return nil
				}
			}
			e, err := mkEngine(id)
			if err != nil {
				// Rebuild can fail on real I/O (wal.Open on a full disk).
				// Returning nil keeps the replica crashed — visible in the
				// results — instead of corrupting the run by re-starting
				// the old engine.
				faultErrors = append(faultErrors, fmt.Errorf("replica %d restart: %w", id, err))
				return nil
			}
			return e
		})
	}
	net.Run(cfg.Duration)

	// Dedup by replica: a replica restarted twice appears in two specs,
	// but its recorder's counter is already cumulative across restarts.
	var restartReplayed int64
	counted := make(map[types.ReplicaID]bool, len(cfg.Restart))
	for _, r := range cfg.Restart {
		if counted[r.Replica] {
			continue
		}
		counted[r.Replica] = true
		if m := net.Engine(r.Replica).Metrics(); m != nil {
			restartReplayed += m["wal_replayed_records"]
		}
	}

	// Optimistic-pipelining counters are per-leader events; sum them
	// cluster-wide so the result reflects every round, not just the
	// observer's turns at rank 0.
	var optProposed, optConfirmed, optWithdrawn int64
	for i := 0; i < len(engines); i++ {
		if m := net.Engine(types.ReplicaID(i)).Metrics(); m != nil {
			optProposed += m["opt_proposed"]
			optConfirmed += m["opt_confirmed"]
			optWithdrawn += m["opt_withdrawn"]
		}
	}

	obsMetrics := net.Engine(observer).Metrics()
	var epoch uint32
	var activations []types.Round
	if h, ok := net.Engine(observer).(interface{ History() *membership.History }); ok {
		if hist := h.History(); hist != nil {
			epoch = hist.Current().Epoch()
			for _, d := range hist.Descs() {
				if d.Epoch > 0 {
					activations = append(activations, d.Activation)
				}
			}
		}
	}
	res := &Result{
		Config:              cfg,
		Latency:             latency.Summarize(),
		LatencySamples:      latency.Samples(),
		ThroughputBps:       throughput.BytesPerSecond(),
		BlocksCommitted:     throughput.Blocks,
		BlockInterval:       throughput.BlockInterval(),
		FastFinal:           obsMetrics["final_fast"],
		SlowFinal:           obsMetrics["final_slow"],
		IndirectFinal:       obsMetrics["final_indirect"],
		OptimisticProposed:  optProposed,
		OptimisticConfirmed: optConfirmed,
		OptimisticWithdrawn: optWithdrawn,
		Faults:              len(faultErrors),
		RestartReplayed:     restartReplayed,
		Messages:            net.Stats().Messages,
		MessageBytes:        net.Stats().Bytes,
		MaxProposalWire:     maxProposalWire,
		Epoch:               epoch,
		EpochChanges:        obsMetrics["epoch_changes"],
		EpochActivations:    activations,
		RoundLatencies:      roundLatencies,
		Delta:               cfg.Delta,
	}
	if cfg.Obs {
		res.Stages = mergeStages(survivors)
		if d := survivors[observer].Obs.Detector; d != nil {
			res.SlowRounds = len(d.Slow())
		}
	}
	if len(faultErrors) > 0 {
		return res, fmt.Errorf("harness: safety faults: %v", faultErrors)
	}
	return res, nil
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
