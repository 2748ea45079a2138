package banyan

import (
	"fmt"
	"sync"
	"time"

	"banyan/internal/beacon"
	"banyan/internal/crypto"
	"banyan/internal/dissem"
	"banyan/internal/membership"
	"banyan/internal/mempool"
	"banyan/internal/metrics"
	"banyan/internal/node"
	"banyan/internal/obs"
	"banyan/internal/protocol"
	"banyan/internal/transport/tcp"
	"banyan/internal/types"
	"banyan/internal/wal"
)

// ReplicaConfig configures a single TCP-connected replica for
// multi-process deployments (see cmd/banyan and cmd/localnet).
type ReplicaConfig struct {
	// ID is this replica's index in [0, MaxN).
	ID int
	// N, F, P are the cluster fault parameters (see Params). N is the
	// genesis validator-set size.
	N, F, P int
	// MaxN is the number of replica identities the deployment provisions
	// keys for; zero means N. Identities in [N, MaxN) start as non-voting
	// observers (they catch up via state sync) and become voters when a
	// finalized ConfigChange admits them — see ProposeAddValidator.
	// Banyan protocols only.
	MaxN int
	// Protocol selects the engine; empty picks ProtocolBanyan.
	Protocol Protocol
	// ListenAddr is the local listen address; Peers maps every replica ID
	// to its address (the entry for ID is ignored).
	ListenAddr string
	Peers      map[int]string
	// Delta is the Δ bound for rank delays; zero picks 50ms (LAN/metro).
	Delta time.Duration
	// MaxBlockBytes caps transaction batches per block (default 1 MiB).
	MaxBlockBytes int
	// Scheme selects the signature scheme (default "ed25519").
	Scheme string
	// ClusterSeed derives the shared demo PKI deterministically; every
	// replica of a deployment must use the same value.
	ClusterSeed uint64
	// CommitBuffer is the capacity of the Commits channel (default 1024).
	CommitBuffer int
	// VerifyWorkers sizes the signature-verification pool: 0 selects
	// GOMAXPROCS, 1 verifies inline, negative additionally skips the
	// node's preverification stage.
	VerifyWorkers int
	// VerifyCacheSize caps the verified-signature cache (0 default,
	// negative disables caching).
	VerifyCacheSize int
	// WALDir, when non-empty, enables the write-ahead log: inbound
	// messages, this replica's own proposals/votes/certificates, and
	// commit decisions are journaled to the directory, and a restarted
	// replica (same WALDir) replays the log on Start — rebuilding its
	// blocktree and voting record, re-delivering the committed chain on
	// Commits, and rejoining at its pre-crash round without equivocating.
	WALDir string
	// WALSyncEveryRecord fsyncs per record instead of group-committing —
	// no durability window, at a large throughput cost (see cmd/bench
	// -exp persist).
	WALSyncEveryRecord bool
	// WALSyncInterval is the group-commit window (0 = 2ms): a crash loses
	// at most the records appended within it.
	WALSyncInterval time.Duration
	// WALSyncBytes flushes a group early at this many buffered bytes
	// (0 = 256 KiB).
	WALSyncBytes int
	// WALSegmentBytes rotates log segments at this size (0 = 64 MiB).
	WALSegmentBytes int
	// WALNoForceOwn drops the force-log-before-send rule for this
	// replica's own signed messages (see wal.SyncPolicy.NoForceOwn):
	// faster, but a crash may forget a vote the network already saw.
	WALNoForceOwn bool
	// WALContinueOnError keeps sending own votes after a WAL write error
	// instead of failing safe by going silent (see
	// wal.RecorderConfig.ContinueOnError).
	WALContinueOnError bool
	// WALCheckpointRounds checkpoints and truncates the WAL every this
	// many finalized rounds (0 = default 16, negative = disabled); see
	// ClusterConfig.WALCheckpointRounds.
	WALCheckpointRounds int
	// DeepPrune evicts finalized block bodies below the engine's prune
	// floor; see ClusterConfig.DeepPrune. A deployment running DeepPrune
	// serves catch-up from a bounded window, and replicas that lose
	// their disk rejoin via peer snapshot state sync (point a fresh
	// Replica at an empty WALDir and Start it).
	DeepPrune bool
	// PruneKeep / PruneInterval override the engine's pruning cadence in
	// rounds (0 = engine defaults).
	PruneKeep, PruneInterval int
	// OptimisticProposals enables Moonshot-style proposal pipelining (see
	// ClusterConfig.OptimisticProposals): the next leader broadcasts its
	// block on the expected parent before the round certifies. Every
	// replica of a deployment must use the same value, stable across
	// restarts.
	OptimisticProposals bool
	// Dissem decouples payload dissemination from ordering (see
	// ClusterConfig.Dissem): batches travel out-of-band, blocks commit
	// digest lists, delivery waits for availability. Every replica of a
	// deployment must use the same value.
	Dissem bool
	// DissemBatchBytes is the dissemination batch cut size; transactions
	// larger than this are rejected at Submit. Zero picks 64 KiB.
	DissemBatchBytes int
	// DissemInlineMax bounds the inline tail a proposal may carry
	// alongside its batch refs. Zero means everything rides in batches.
	DissemInlineMax int
	// Obs enables the observability layer: block-lifecycle tracing,
	// stage-latency histograms (commit latency, preverify wait, verify
	// time, WAL flush, dissem fetch, delivery wait), and gauges, all
	// registered in the replica's metrics registry. Implied by ObsAddr.
	Obs bool
	// ObsAddr, when non-empty, serves the observability endpoint on this
	// address: /metrics (Prometheus text), /debug/pprof/*, /trace
	// (Chrome trace JSON), /trace/summary, /slow. Implies Obs.
	ObsAddr string
	// ObsTraceEvents overrides the tracer ring capacity
	// (0 = obs.DefaultTraceEvents).
	ObsTraceEvents int
	// ObsSlowK overrides the slow-round detector's k×EWMA multiplier
	// (0 = obs.DefaultSlowK).
	ObsSlowK float64
	// Logf, when non-nil, receives transport diagnostics.
	Logf func(format string, args ...any)
}

// walOptions converts the ReplicaConfig knobs to wal.Options.
func (cfg ReplicaConfig) walOptions() wal.Options {
	return wal.Options{
		Sync: wal.SyncPolicy{
			EveryRecord: cfg.WALSyncEveryRecord,
			Interval:    cfg.WALSyncInterval,
			Bytes:       cfg.WALSyncBytes,
			NoForceOwn:  cfg.WALNoForceOwn,
		},
		SegmentBytes: cfg.WALSegmentBytes,
	}
}

// Replica is one consensus replica over TCP.
type Replica struct {
	cfg      ReplicaConfig
	params   types.Params
	node     *node.Node
	tr       *tcp.Transport
	pool     *mempool.Pool
	store    *dissem.Store // nil without Dissem
	engine   protocol.Engine
	rec      *wal.Recorder // nil without WALDir
	counters *metrics.Registry
	obs      *obs.Observer // nil without Obs/ObsAddr
	obsSrv   *obs.Server   // nil without ObsAddr
	maxN     int
	keyring  *crypto.Keyring
	reconfig *membership.Reconfigurator // nil for baseline protocols

	commits   chan Commit
	rawCommit chan node.CommitEvent

	mu      sync.Mutex
	faults  []error
	stopped bool
	done    chan struct{}
}

// NewReplica assembles a replica; call Start to run it.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Protocol == "" {
		cfg.Protocol = ProtocolBanyan
	}
	if cfg.P == 0 {
		cfg.P = 1
	}
	var params types.Params
	var err error
	if cfg.F == 0 {
		params, err = DefaultParams(cfg.Protocol, cfg.N, cfg.P)
	} else {
		params, err = Params(cfg.Protocol, cfg.N, cfg.F, cfg.P)
	}
	if err != nil {
		return nil, err
	}
	maxN := cfg.MaxN
	if maxN == 0 {
		maxN = params.N
	}
	if maxN < params.N {
		return nil, fmt.Errorf("banyan: MaxN %d below N %d", maxN, params.N)
	}
	if maxN > params.N && cfg.Protocol != ProtocolBanyan && cfg.Protocol != ProtocolBanyanNoFast {
		return nil, fmt.Errorf("banyan: MaxN requires a Banyan protocol, got %q", cfg.Protocol)
	}
	if cfg.ID < 0 || cfg.ID >= maxN {
		return nil, fmt.Errorf("banyan: replica id %d out of range (maxN=%d)", cfg.ID, maxN)
	}
	if cfg.Delta == 0 {
		cfg.Delta = 50 * time.Millisecond
	}
	if cfg.MaxBlockBytes <= 0 {
		cfg.MaxBlockBytes = 1 << 20
	}
	if cfg.Scheme == "" {
		cfg.Scheme = "ed25519"
	}
	if cfg.CommitBuffer <= 0 {
		cfg.CommitBuffer = 1024
	}
	if cfg.Dissem {
		if cfg.Protocol != ProtocolBanyan && cfg.Protocol != ProtocolBanyanNoFast {
			return nil, fmt.Errorf("banyan: Dissem requires a Banyan protocol, got %q", cfg.Protocol)
		}
		if cfg.DissemBatchBytes <= 0 {
			cfg.DissemBatchBytes = 64 << 10
		}
	}

	scheme, err := crypto.SchemeByName(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	keyring, signers := crypto.GenerateCluster(scheme, maxN, cfg.ClusterSeed)
	bc, err := beacon.NewRoundRobin(params.N)
	if err != nil {
		return nil, err
	}

	peers := make(map[types.ReplicaID]string, len(cfg.Peers))
	for id, addr := range cfg.Peers {
		peers[types.ReplicaID(id)] = addr
	}
	listenAddr := cfg.ListenAddr
	if listenAddr == "" {
		// Default to this replica's own entry in the peer list.
		listenAddr = cfg.Peers[cfg.ID]
	}
	counters := metrics.NewRegistry()
	var observer *obs.Observer
	if cfg.Obs || cfg.ObsAddr != "" {
		// Share the replica's registry so transport/engine counters and
		// the observability instruments export through one /metrics page.
		observer = obs.New(obs.Options{
			Registry:    counters,
			TraceEvents: cfg.ObsTraceEvents,
			SlowK:       cfg.ObsSlowK,
		})
	}
	tr, err := tcp.New(tcp.Config{
		Self:       types.ReplicaID(cfg.ID),
		ListenAddr: listenAddr,
		Peers:      peers,
		Logf:       cfg.Logf,
		Drops:      counters.Counter("transport_dropped"),
	})
	if err != nil {
		return nil, err
	}

	pool := mempool.NewPool(0, cfg.MaxBlockBytes)
	if cfg.Dissem {
		pool = mempool.NewShardedPool(0, cfg.DissemBatchBytes, params.N)
	}
	r := &Replica{
		cfg:       cfg,
		params:    params,
		maxN:      maxN,
		keyring:   keyring,
		tr:        tr,
		pool:      pool,
		counters:  counters,
		obs:       observer,
		commits:   make(chan Commit, cfg.CommitBuffer),
		rawCommit: make(chan node.CommitEvent, cfg.CommitBuffer),
		done:      make(chan struct{}),
	}
	if cfg.Dissem {
		// Fresh per process: bodies are not journaled (the WAL holds the
		// refs inside blocks); a restarted replica re-fetches what it lost.
		r.store = dissem.NewStore(dissem.Config{
			Self:       types.ReplicaID(cfg.ID),
			N:          params.N,
			BatchBytes: cfg.DissemBatchBytes,
			InlineMax:  cfg.DissemInlineMax,
			BlockBytes: cfg.MaxBlockBytes,
			Source:     pool,
		})
	}
	verifier := newVerifierFor(cfg.Protocol, keyring, crypto.VerifyConfig{
		Workers: cfg.VerifyWorkers, CacheSize: cfg.VerifyCacheSize,
	})
	switch cfg.Protocol {
	case ProtocolBanyan, ProtocolBanyanNoFast:
		r.reconfig = &membership.Reconfigurator{}
	}
	if observer != nil {
		pool := r.pool
		store := r.store
		observer.OnCollect(func(o *obs.Observer) {
			o.MempoolDepth.Set(int64(pool.Len()))
			if store != nil {
				o.DissemStoreBytes.Set(store.HeldBytes())
			}
			collectVerifier(o, verifier)
		})
	}
	eng, err := buildEngine(cfg.Protocol, params, types.ReplicaID(cfg.ID),
		keyring, verifier, signers[cfg.ID], bc, r.pool, engineTuning{
			delta:         cfg.Delta,
			deepPrune:     cfg.DeepPrune,
			pruneKeep:     types.Round(cfg.PruneKeep),
			pruneInterval: types.Round(cfg.PruneInterval),
			optimistic:    cfg.OptimisticProposals,
			dissem:        r.store,
			reconfig:      r.reconfig,
			obs:           observer,
		})
	if err != nil {
		tr.Close()
		return nil, err
	}
	r.engine = eng
	hosted := eng
	if cfg.WALDir != "" {
		walOpts := cfg.walOptions()
		if observer != nil {
			walOpts.FlushHist = observer.WALFlush
		}
		rec, err := wal.NewRecorder(wal.RecorderConfig{
			Dir:             cfg.WALDir,
			Engine:          eng,
			Options:         walOpts,
			ContinueOnError: cfg.WALContinueOnError,
			CheckpointEvery: checkpointEveryFor(cfg.Protocol, cfg.WALCheckpointRounds),
		})
		if err != nil {
			tr.Close()
			return nil, err
		}
		r.rec = rec
		hosted = rec
	}
	n, err := node.New(node.Config{
		Engine:        hosted,
		Transport:     tr,
		Commits:       r.rawCommit,
		OnFault:       func(err error) { r.recordFault(err) },
		Preverifier:   preverifierFor(verifier),
		VerifyWorkers: cfg.VerifyWorkers,
		Obs:           observer,
	})
	if err != nil {
		tr.Close()
		if r.rec != nil {
			r.rec.Close()
		}
		return nil, err
	}
	r.node = n
	return r, nil
}

// Addr returns the bound listen address.
func (r *Replica) Addr() string { return r.tr.Addr() }

// Start runs the replica.
func (r *Replica) Start() error {
	if r.cfg.ObsAddr != "" && r.obsSrv == nil {
		srv, err := obs.Serve(r.cfg.ObsAddr, r.obs, types.ReplicaID(r.cfg.ID))
		if err != nil {
			return fmt.Errorf("banyan: obs endpoint: %w", err)
		}
		r.obsSrv = srv
	}
	go r.pump()
	return r.node.Start()
}

// Observer returns the replica's observability bundle (nil unless Obs or
// ObsAddr is set). Histograms and the tracer are internally synchronized
// and safe to read while the replica runs.
func (r *Replica) Observer() *obs.Observer { return r.obs }

// ObsAddr returns the bound observability endpoint address ("" when
// ObsAddr was not configured or the replica has not started).
func (r *Replica) ObsAddr() string {
	if r.obsSrv == nil {
		return ""
	}
	return r.obsSrv.Addr()
}

func (r *Replica) pump() {
	defer close(r.commits)
	for {
		select {
		case <-r.done:
			return
		case ev := <-r.rawCommit:
			for _, b := range ev.Blocks {
				commit := Commit{
					Round:        uint64(b.Round),
					Epoch:        b.Epoch,
					BlockID:      b.ID().String(),
					Proposer:     int(b.Proposer),
					Transactions: decodeTransactions(r.store, b.Payload),
					PayloadBytes: b.Payload.Size(),
					Path:         pathOf(ev.Explicit),
					At:           ev.At,
				}
				select {
				case r.commits <- commit:
				case <-r.done:
					return
				}
			}
		}
	}
}

// Submit queues a transaction for proposal when this replica leads.
func (r *Replica) Submit(tx []byte) bool { return r.pool.Submit(tx) }

// SubmitErr queues a transaction, returning the mempool's typed
// rejection (mempool.ErrTxTooLarge, mempool.ErrPoolFull,
// mempool.ErrTxEmpty) on failure. In dissemination mode a transaction
// larger than DissemBatchBytes is refused here — never truncated.
func (r *Replica) SubmitErr(tx []byte) error { return r.pool.SubmitErr(tx) }

// SubmitFrom queues a transaction under a submitter identity, the shard
// key of the mempool's submitter-sharded drain.
func (r *Replica) SubmitFrom(submitter uint64, tx []byte) error {
	return r.pool.SubmitFrom(submitter, tx)
}

// Commits streams blocks finalized by this replica.
func (r *Replica) Commits() <-chan Commit { return r.commits }

// ProposeAddValidator queues a ConfigChange admitting a provisioned
// identity (see MaxN): the next time this replica leads a round it
// attaches the change to its proposal; once a block carrying it
// finalizes at round R the grown set takes effect at R+1. For the change
// to land promptly, call this on every running replica — whichever leads
// first proposes it, and every replica's slot clears when the change
// finalizes. Banyan protocols only.
func (r *Replica) ProposeAddValidator(id int) error {
	if id < 0 || id >= r.maxN {
		return fmt.Errorf("banyan: no provisioned identity %d (maxN=%d)", id, r.maxN)
	}
	key := r.keyring.PublicKey(types.ReplicaID(id))
	if key == nil {
		return fmt.Errorf("banyan: no key provisioned for replica %d", id)
	}
	return r.proposeChange(types.ConfigChange{
		Op: types.ConfigAdd, Replica: types.ReplicaID(id), PubKey: key,
	})
}

// ProposeRemoveValidator queues a ConfigChange evicting a validator; see
// ProposeAddValidator for how changes land. From the activation round on
// the evicted replica's votes carry no weight; it keeps running as a
// non-voting observer.
func (r *Replica) ProposeRemoveValidator(id int) error {
	if id < 0 || id >= r.maxN {
		return fmt.Errorf("banyan: no replica %d", id)
	}
	return r.proposeChange(types.ConfigChange{
		Op: types.ConfigRemove, Replica: types.ReplicaID(id),
	})
}

func (r *Replica) proposeChange(change types.ConfigChange) error {
	if r.reconfig == nil {
		return fmt.Errorf("banyan: reconfiguration requires a Banyan protocol, got %q", r.cfg.Protocol)
	}
	r.reconfig.Propose(change)
	return nil
}

// Epoch returns the validator-set epoch this replica currently operates
// in (0 for the single-epoch baselines). Safe to poll while running.
func (r *Replica) Epoch() uint32 {
	h, ok := r.engine.(interface{ History() *membership.History })
	if !ok {
		return 0
	}
	return h.History().Current().Epoch()
}

// MemberIDs returns the validator IDs of this replica's current epoch,
// in set order (nil for baselines).
func (r *Replica) MemberIDs() []int {
	h, ok := r.engine.(interface{ History() *membership.History })
	if !ok {
		return nil
	}
	members := h.History().Current().Members()
	out := make([]int, len(members))
	for i, m := range members {
		out[i] = int(m)
	}
	return out
}

// Faults returns safety faults (must stay empty).
func (r *Replica) Faults() []error {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]error, len(r.faults))
	copy(out, r.faults)
	return out
}

// Metrics returns the engine counters (plus WAL counters when a WALDir
// is set, and transport counters such as "transport_dropped"). Only
// valid after Stop.
func (r *Replica) Metrics() map[string]int64 {
	m := r.node.Metrics()
	if m == nil {
		return nil
	}
	for name, v := range r.counters.Snapshot() {
		m[name] = v
	}
	r.pool.Metrics(m)
	return m
}

// Stop shuts the replica down gracefully, flushing the WAL tail.
func (r *Replica) Stop() {
	r.shutdown(true)
}

// Crash shuts the replica down abandoning the WAL's unsynced group —
// what a process crash leaves on disk. A new Replica with the same
// WALDir recovers the durable prefix and rejoins; see the crash-restart
// walkthrough in the README.
func (r *Replica) Crash() {
	r.shutdown(false)
}

func (r *Replica) shutdown(flush bool) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.mu.Unlock()
	if r.obsSrv != nil {
		r.obsSrv.Close()
	}
	r.node.Stop()
	if r.rec != nil {
		// A log that died mid-run means the replica has been running
		// without durability; surface that as a fault rather than letting
		// the run report clean.
		if err := r.rec.Err(); err != nil {
			r.recordFault(err)
		}
		if flush {
			if err := r.rec.Close(); err != nil {
				r.recordFault(err)
			}
		} else {
			r.rec.Crash()
		}
	}
	close(r.done)
}

func (r *Replica) recordFault(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faults = append(r.faults, err)
}
