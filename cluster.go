package banyan

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"banyan/internal/beacon"
	"banyan/internal/blocktree"
	"banyan/internal/core"
	"banyan/internal/crypto"
	"banyan/internal/dissem"
	"banyan/internal/hotstuff"
	"banyan/internal/icc"
	"banyan/internal/membership"
	"banyan/internal/mempool"
	"banyan/internal/node"
	"banyan/internal/obs"
	"banyan/internal/protocol"
	"banyan/internal/streamlet"
	"banyan/internal/transport/channel"
	"banyan/internal/types"
	"banyan/internal/wal"
)

// ClusterConfig configures an in-process cluster.
type ClusterConfig struct {
	// N is the number of replicas in the genesis validator set. Required.
	N int
	// MaxN is the number of replica identities to provision (keys, hub
	// slots, engines); zero means N. Identities in [N, MaxN) are not
	// genesis members: they boot later via JoinReplica — cold, catching up
	// through state sync — and become voters only when a finalized
	// ConfigChange admits them (AddValidator). Banyan protocols only.
	MaxN int
	// F is the number of Byzantine faults tolerated; zero picks the
	// maximum for N.
	F int
	// P is Banyan's fast-path slack (1 <= p <= f); zero picks 1.
	P int
	// Protocol selects the engine; empty picks ProtocolBanyan.
	Protocol Protocol
	// Delta is the message-delay bound Δ used for rank delays and epoch
	// lengths; zero picks a LAN-appropriate 10ms.
	Delta time.Duration
	// LinkDelay simulates a uniform one-way delay between replicas; zero
	// means direct in-memory delivery.
	LinkDelay time.Duration
	// MaxBlockBytes caps the transaction batch per block (default 1 MiB).
	MaxBlockBytes int
	// Scheme selects the signature scheme ("ed25519" default for clusters,
	// "hmac" for cheap simulation).
	Scheme string
	// Seed makes key generation deterministic (a production deployment
	// would exchange real keys; the cluster bootstraps a demo PKI).
	Seed uint64
	// CommitBuffer is the capacity of the Commits channel (default 1024).
	CommitBuffer int
	// VerifyWorkers sizes each replica's signature-verification pool: 0
	// selects GOMAXPROCS, 1 verifies inline, negative additionally skips
	// the node's preverification stage.
	VerifyWorkers int
	// VerifyCacheSize caps each replica's verified-signature cache
	// (0 default, negative disables caching).
	VerifyCacheSize int
	// WALDir, when non-empty, gives every replica a write-ahead log in
	// WALDir/replica-<i>. Replicas journal inbound messages, their own
	// proposals/votes/certificates and commit decisions; CrashReplica and
	// RestartReplica then express crash-restart scenarios: a restarted
	// replica replays its log, restores its voting record (so it cannot
	// equivocate), and rejoins the live cluster.
	WALDir string
	// WALSyncEveryRecord fsyncs per record instead of group-committing.
	WALSyncEveryRecord bool
	// WALSyncInterval is the group-commit window (0 = 2ms).
	WALSyncInterval time.Duration
	// WALSyncBytes flushes a group early at this many buffered bytes
	// (0 = 256 KiB).
	WALSyncBytes int
	// WALSegmentBytes rotates log segments at this size (0 = 64 MiB).
	WALSegmentBytes int
	// WALNoForceOwn drops the force-log-before-send rule for replicas'
	// own signed messages (see wal.SyncPolicy.NoForceOwn): faster, but a
	// crash may forget a vote the network already saw.
	WALNoForceOwn bool
	// WALContinueOnError keeps sending own votes after a WAL write error
	// instead of failing safe by going silent (see
	// wal.RecorderConfig.ContinueOnError).
	WALContinueOnError bool
	// WALCheckpointRounds controls WAL checkpointing: every this many
	// finalized rounds the replica journals an engine snapshot and
	// truncates the log behind it, so restart replay and disk usage stay
	// O(window) instead of growing with uptime. Zero selects the default
	// (16 rounds, matching the engine's pruning window); negative
	// disables checkpointing (append-only log, full replay). Note that a
	// replica restarted from a checkpoint re-delivers commits only from
	// the checkpoint window onward — the application is assumed to have
	// durably applied (or snapshotted) everything the checkpoint
	// summarizes.
	WALCheckpointRounds int
	// DeepPrune evicts finalized block bodies below the Banyan engines'
	// prune floor. Replicas then hold (and can serve catch-up from) only
	// a bounded window of the chain; peers that fall behind that window —
	// fresh joiners, disk-loss restarts — recover via peer snapshot state
	// sync instead of block-by-block replay.
	DeepPrune bool
	// PruneKeep / PruneInterval override the Banyan engines' pruning
	// cadence in rounds (0 = engine defaults: keep 16, prune every 64).
	PruneKeep, PruneInterval int
	// OptimisticProposals enables Moonshot-style proposal pipelining in
	// the Banyan engines: the next leader signs and broadcasts its block
	// on the expected parent before the round certifies, confirming it
	// with its fast vote or withdrawing it on a parent mismatch (see
	// core.Config.OptimisticProposals). Requires ProtocolBanyan (the fast
	// path). Keep the knob stable across restarts of a WAL-backed cluster.
	OptimisticProposals bool
	// Dissem decouples payload dissemination from ordering (Banyan
	// protocols only): replicas cut mempool transactions into
	// digest-addressed batches broadcast off the consensus path, blocks
	// commit ordered digest lists instead of transaction bytes, and
	// finalized delivery — never voting — waits for batch availability
	// (fetch-on-miss from the proposer). See internal/dissem.
	Dissem bool
	// DissemBatchBytes is the dissemination batch cut size; transactions
	// larger than this are rejected at Submit. Zero picks 64 KiB. Only
	// meaningful with Dissem.
	DissemBatchBytes int
	// DissemInlineMax bounds the inline tail a proposal may carry
	// alongside its batch refs, letting latency-sensitive transactions
	// skip a dissemination cycle. Zero means everything rides in batches.
	DissemInlineMax int
	// HoldStart lists replicas excluded from Start. A held replica boots
	// later via JoinReplica, cold, having observed nothing — the
	// fresh-join scenario.
	HoldStart []int
	// Obs enables the observability layer: every replica gets an
	// obs.Observer (lifecycle tracer, stage-latency histograms, gauges)
	// wired through its engine, node, and WAL. Off (nil observers) the
	// instrumented hot paths pay a single branch and no clock reads.
	// Observers survive crash-restarts, so histograms span a replica's
	// lives. Read them back via Observer.
	Obs bool
	// ObsTraceEvents overrides the tracer ring capacity
	// (0 = obs.DefaultTraceEvents). Only meaningful with Obs.
	ObsTraceEvents int
}

// defaultWALCheckpointRounds matches the engine's default PruneKeep, so
// replay work after a checkpointed restart is the same order as the
// engine's own in-memory retention.
const defaultWALCheckpointRounds = 16

// walCheckpointEvery resolves the WALCheckpointRounds knob.
func walCheckpointEvery(rounds int) types.Round {
	switch {
	case rounds < 0:
		return 0
	case rounds == 0:
		return defaultWALCheckpointRounds
	default:
		return types.Round(rounds)
	}
}

// checkpointEveryFor gates checkpointing on the engine's capability:
// only the Banyan core engine implements protocol.Snapshotter; the
// baseline engines run their WAL append-only.
func checkpointEveryFor(proto Protocol, rounds int) types.Round {
	switch proto {
	case ProtocolBanyan, ProtocolBanyanNoFast:
		return walCheckpointEvery(rounds)
	default:
		return 0
	}
}

// walOptions converts the ClusterConfig knobs to wal.Options.
func (cfg ClusterConfig) walOptions() wal.Options {
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

// Cluster is an n-replica consensus cluster running in one process. It
// exposes the replica-0 application view: submitted transactions are
// load-balanced across all replicas' mempools, and finalized blocks are
// streamed from replica 0 (all replicas finalize identical chains).
type Cluster struct {
	cfg     ClusterConfig
	params  types.Params
	maxN    int
	hub     *channel.Hub
	nodes   []*node.Node
	engines []protocol.Engine
	recs    []*wal.Recorder // nil entries without WALDir
	pools   []*mempool.Pool
	stores  []*dissem.Store // nil entries without Dissem
	// verifiers are the per-replica verification pipelines (nil entries
	// for the baselines), rebuilt with the engine on restart.
	verifiers []*crypto.Verifier
	// reconfigs are the per-replica hand-off slots for validator-set
	// changes (Banyan protocols; nil entries otherwise). They outlive
	// engine rebuilds, so a pending change survives a crash-restart.
	reconfigs []*membership.Reconfigurator
	// observers are the per-replica observability bundles (nil entries
	// without Obs). Like reconfigs they outlive engine rebuilds.
	observers []*obs.Observer

	// Rebuild materials for RestartReplica: the shared demo PKI and
	// beacon every engine was constructed from.
	keyring *crypto.Keyring
	signers []*crypto.Signer
	beacon  beacon.Beacon

	commits   chan Commit
	rawCommit chan node.CommitEvent

	mu       sync.Mutex
	nextPool int
	faults   []error
	started  bool
	stopped  bool
	crashed  []bool
	crashing []bool // teardown in progress: not running, not yet restartable
	held     []bool // excluded from Start, waiting for JoinReplica

	done chan struct{}
}

// NewCluster assembles a cluster; call Start to run it.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("banyan: cluster needs N > 0")
	}
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
	if cfg.Delta == 0 {
		cfg.Delta = 10 * time.Millisecond
		if cfg.LinkDelay > 0 {
			cfg.Delta = 2*cfg.LinkDelay + 5*time.Millisecond
		}
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

	scheme, err := crypto.SchemeByName(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	keyring, signers := crypto.GenerateCluster(scheme, maxN, cfg.Seed)
	bc, err := beacon.NewRoundRobin(params.N)
	if err != nil {
		return nil, err
	}

	var hubOpts channel.Options
	if cfg.LinkDelay > 0 {
		d := cfg.LinkDelay
		hubOpts.Delay = func(_, _ types.ReplicaID) time.Duration { return d }
	}
	hub := channel.NewHub(maxN, hubOpts)

	c := &Cluster{
		cfg:       cfg,
		params:    params,
		maxN:      maxN,
		hub:       hub,
		nodes:     make([]*node.Node, maxN),
		engines:   make([]protocol.Engine, maxN),
		recs:      make([]*wal.Recorder, maxN),
		pools:     make([]*mempool.Pool, maxN),
		stores:    make([]*dissem.Store, maxN),
		verifiers: make([]*crypto.Verifier, maxN),
		reconfigs: make([]*membership.Reconfigurator, maxN),
		observers: make([]*obs.Observer, maxN),
		keyring:   keyring,
		signers:   signers,
		beacon:    bc,
		crashed:   make([]bool, maxN),
		crashing:  make([]bool, maxN),
		held:      make([]bool, maxN),
		commits:   make(chan Commit, cfg.CommitBuffer),
		rawCommit: make(chan node.CommitEvent, cfg.CommitBuffer),
		done:      make(chan struct{}),
	}
	switch cfg.Protocol {
	case ProtocolBanyan, ProtocolBanyanNoFast:
		for i := range c.reconfigs {
			c.reconfigs[i] = &membership.Reconfigurator{}
		}
	}
	for _, h := range cfg.HoldStart {
		if h < 0 || h >= maxN {
			return nil, fmt.Errorf("banyan: HoldStart replica %d out of range (n=%d)", h, maxN)
		}
		c.held[h] = true
	}
	// Provisioned non-genesis identities are implicitly held: they enter
	// via JoinReplica once (or just before) a ConfigChange admits them.
	for i := params.N; i < maxN; i++ {
		c.held[i] = true
	}
	for i := 0; i < maxN; i++ {
		if cfg.Dissem {
			// The batch size caps individual transactions (oversize is a
			// typed Submit rejection, never truncation), and submitters
			// shard so one heavy client cannot starve the rest of a batch.
			c.pools[i] = mempool.NewShardedPool(0, cfg.DissemBatchBytes, params.N)
		} else {
			c.pools[i] = mempool.NewPool(0, cfg.MaxBlockBytes)
		}
		if cfg.Obs {
			o := obs.New(obs.Options{TraceEvents: cfg.ObsTraceEvents})
			c.observers[i] = o
			// Pull-style gauges refresh at scrape time: the pool is stable
			// across restarts, the store and verifier slots are read under
			// c.mu because buildReplica swaps them on restart.
			idx := i
			o.OnCollect(func(o *obs.Observer) {
				o.MempoolDepth.Set(int64(c.pools[idx].Len()))
				s, v := c.slotsOf(idx)
				if s != nil {
					o.DissemStoreBytes.Set(s.HeldBytes())
				}
				collectVerifier(o, v)
			})
		}
		if err := c.buildReplica(i); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// slotsOf returns a replica's dissemination store and verifier slots
// under the lock (RestartReplica swaps them).
func (c *Cluster) slotsOf(i int) (*dissem.Store, *crypto.Verifier) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stores[i], c.verifiers[i]
}

// Observer returns a replica's observability bundle (nil without
// ClusterConfig.Obs or for an invalid replica). The bundle is fixed at
// construction and internally synchronized: histograms and the tracer
// are safe to read while the cluster runs, and it survives
// crash-restarts of its replica.
func (c *Cluster) Observer(replica int) *obs.Observer {
	if replica < 0 || replica >= len(c.observers) {
		return nil
	}
	return c.observers[replica]
}

// buildReplica assembles (or reassembles, after a crash) replica i's
// engine, optional WAL recorder, and node over the shared hub. The
// mempool is reused across restarts — submitted transactions survive.
func (c *Cluster) buildReplica(i int) error {
	id := types.ReplicaID(i)
	verifyCfg := crypto.VerifyConfig{Workers: c.cfg.VerifyWorkers, CacheSize: c.cfg.VerifyCacheSize}
	// One verifier per Banyan replica, shared between the engine and
	// the node's preverification stage so cache warm-ups reach the
	// engine. The baseline engines verify through the keyring
	// directly, so building one for them would be dead weight.
	verifier := newVerifierFor(c.cfg.Protocol, c.keyring, verifyCfg)
	c.verifiers[i] = verifier
	if c.cfg.Dissem {
		// A fresh store per build: batch bodies are deliberately not
		// journaled (the WAL holds the refs inside blocks), so a restarted
		// replica re-fetches any finalized body it is missing — the ack
		// quorum guarantees f+1 other holders.
		c.stores[i] = dissem.NewStore(dissem.Config{
			Self:       id,
			N:          c.params.N,
			BatchBytes: c.cfg.DissemBatchBytes,
			InlineMax:  c.cfg.DissemInlineMax,
			BlockBytes: c.cfg.MaxBlockBytes,
			Source:     c.pools[i],
		})
	}
	eng, err := buildEngine(c.cfg.Protocol, c.params, id, c.keyring, verifier,
		c.signers[i], c.beacon, c.pools[i], engineTuning{
			delta:         c.cfg.Delta,
			deepPrune:     c.cfg.DeepPrune,
			pruneKeep:     types.Round(c.cfg.PruneKeep),
			pruneInterval: types.Round(c.cfg.PruneInterval),
			optimistic:    c.cfg.OptimisticProposals,
			dissem:        c.stores[i],
			reconfig:      c.reconfigs[i],
			obs:           c.observers[i],
		})
	if err != nil {
		return err
	}
	c.engines[i] = eng
	hosted := eng
	if c.cfg.WALDir != "" {
		walOpts := c.cfg.walOptions()
		if o := c.observers[i]; o != nil {
			walOpts.FlushHist = o.WALFlush
		}
		rec, err := wal.NewRecorder(wal.RecorderConfig{
			Dir:             filepath.Join(c.cfg.WALDir, fmt.Sprintf("replica-%d", i)),
			Engine:          eng,
			Options:         walOpts,
			ContinueOnError: c.cfg.WALContinueOnError,
			CheckpointEvery: checkpointEveryFor(c.cfg.Protocol, c.cfg.WALCheckpointRounds),
		})
		if err != nil {
			return err
		}
		c.recs[i] = rec
		hosted = rec
	}
	var commitCh chan<- node.CommitEvent
	if i == 0 {
		commitCh = c.rawCommit
	}
	n, err := node.New(node.Config{
		Engine:        hosted,
		Transport:     c.hub.Transport(id),
		Commits:       commitCh,
		OnFault:       func(err error) { c.recordFault(err) },
		Preverifier:   preverifierFor(verifier),
		VerifyWorkers: c.cfg.VerifyWorkers,
		Obs:           c.observers[i],
	})
	if err != nil {
		return err
	}
	c.nodes[i] = n
	return nil
}

// newVerifierFor builds the shared verification pipeline for the Banyan
// engines; the baselines verify through the keyring directly and get nil.
func newVerifierFor(proto Protocol, keyring *crypto.Keyring, cfg crypto.VerifyConfig) *crypto.Verifier {
	switch proto {
	case ProtocolBanyan, ProtocolBanyanNoFast:
		return crypto.NewVerifier(keyring, cfg)
	default:
		return nil
	}
}

// preverifierFor adapts a possibly-nil verifier to the node's Preverifier
// interface (a typed nil inside the interface would dodge the node's
// nil check and panic on first use).
func preverifierFor(verifier *crypto.Verifier) node.Preverifier {
	if verifier == nil {
		return nil
	}
	return verifier
}

// collectVerifier refreshes the verification gauges of a scrape from a
// replica's pipeline (nil for the baselines): signatures found in the
// verified cache, signatures verified, and signatures preverification
// skipped because their round was settled.
func collectVerifier(o *obs.Observer, v *crypto.Verifier) {
	if v == nil {
		return
	}
	hits, misses := v.CacheStats()
	o.VerifyCacheHits.Set(hits)
	o.VerifyCacheMisses.Set(misses)
	o.VerifySettledSkipped.Set(v.SettledSkipped())
}

// engineTuning bundles the per-deployment engine knobs shared by
// Cluster and Replica construction.
type engineTuning struct {
	delta         time.Duration
	deepPrune     bool
	pruneKeep     types.Round
	pruneInterval types.Round
	optimistic    bool
	dissem        *dissem.Store
	reconfig      *membership.Reconfigurator
	obs           *obs.Observer
}

func buildEngine(proto Protocol, params types.Params, id types.ReplicaID,
	keyring *crypto.Keyring, verifier *crypto.Verifier, signer *crypto.Signer, bc beacon.Beacon,
	payloads protocol.PayloadSource, tune engineTuning) (protocol.Engine, error) {
	delta := tune.delta
	if tune.dissem != nil && proto != ProtocolBanyan && proto != ProtocolBanyanNoFast {
		return nil, fmt.Errorf("banyan: batch dissemination requires a Banyan protocol, got %q", proto)
	}
	switch proto {
	case ProtocolBanyan, ProtocolBanyanNoFast:
		return core.New(core.Config{
			Params:              params,
			Self:                id,
			Keyring:             keyring,
			Verifier:            verifier,
			Signer:              signer,
			Beacon:              bc,
			Payloads:            payloads,
			Delta:               delta,
			Reconfig:            tune.reconfig,
			DisableFastPath:     proto == ProtocolBanyanNoFast,
			OptimisticProposals: tune.optimistic,
			DeepPrune:           tune.deepPrune,
			PruneKeep:           tune.pruneKeep,
			PruneInterval:       tune.pruneInterval,
			Dissem:              tune.dissem,
			Obs:                 tune.obs,
		})
	case ProtocolICC:
		return icc.New(icc.Config{
			Params:   params,
			Self:     id,
			Keyring:  keyring,
			Signer:   signer,
			Beacon:   bc,
			Payloads: payloads,
			Delta:    delta,
		})
	case ProtocolHotStuff:
		return hotstuff.New(hotstuff.Config{
			Params:      params,
			Self:        id,
			Keyring:     keyring,
			Signer:      signer,
			Beacon:      bc,
			Payloads:    payloads,
			ViewTimeout: 6 * delta,
		})
	case ProtocolStreamlet:
		return streamlet.New(streamlet.Config{
			Params:        params,
			Self:          id,
			Keyring:       keyring,
			Signer:        signer,
			Beacon:        bc,
			Payloads:      payloads,
			EpochDuration: 2 * delta,
		})
	default:
		return nil, fmt.Errorf("banyan: unknown protocol %q", proto)
	}
}

// Start boots every replica.
func (c *Cluster) Start() error {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return fmt.Errorf("banyan: cluster already started")
	}
	c.started = true
	c.mu.Unlock()
	go c.pump()
	for i, n := range c.nodes {
		if c.held[i] {
			continue
		}
		if err := n.Start(); err != nil {
			return err
		}
	}
	return nil
}

// JoinReplica starts a replica that was held out of Start (see
// ClusterConfig.HoldStart): it boots cold, with no chain and no voting
// record, and catches up from its peers — over the sync subprotocol
// when they still hold the needed blocks, or by fetching a
// quorum-certified snapshot of the finalized window when they have
// pruned past its position (snapshot state sync).
func (c *Cluster) JoinReplica(replica int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if replica < 0 || replica >= len(c.nodes) {
		return fmt.Errorf("banyan: no replica %d", replica)
	}
	if !c.started || c.stopped {
		return fmt.Errorf("banyan: cluster is not running")
	}
	if !c.held[replica] {
		return fmt.Errorf("banyan: replica %d was not held out of Start", replica)
	}
	// A joiner's transport exists from join time: the traffic the hub
	// queued for its slot while it was held predates the replica and is
	// discarded, exactly as a real deployment would never have seen it.
	c.hub.Drain(types.ReplicaID(replica))
	if err := c.nodes[replica].Start(); err != nil {
		return err
	}
	c.held[replica] = false
	return nil
}

// AddValidator proposes admitting a provisioned identity (see
// ClusterConfig.MaxN) to the validator set. The change rides in the next
// block a leader proposes; once that block finalizes at some round R the
// new set takes effect at R+1 — the joiner votes from its first
// post-activation round, having caught up through JoinReplica's state
// sync. The joining replica's key comes from the cluster's provisioned
// keyring. Banyan protocols only.
func (c *Cluster) AddValidator(replica int) error {
	if replica < 0 || replica >= c.maxN {
		return fmt.Errorf("banyan: no provisioned identity %d (MaxN=%d)", replica, c.maxN)
	}
	key := c.keyring.PublicKey(types.ReplicaID(replica))
	if key == nil {
		return fmt.Errorf("banyan: no key provisioned for replica %d", replica)
	}
	return c.proposeChange(types.ConfigChange{
		Op: types.ConfigAdd, Replica: types.ReplicaID(replica), PubKey: key,
	})
}

// RemoveValidator proposes evicting a validator from the set. From the
// activation round on, the evicted replica's votes carry no weight and
// certificates are verified against the shrunken set; the replica itself
// keeps running as a non-voting observer. Banyan protocols only.
func (c *Cluster) RemoveValidator(replica int) error {
	if replica < 0 || replica >= c.maxN {
		return fmt.Errorf("banyan: no replica %d", replica)
	}
	return c.proposeChange(types.ConfigChange{
		Op: types.ConfigRemove, Replica: types.ReplicaID(replica),
	})
}

// proposeChange hands a change to every replica's reconfiguration slot:
// whichever leader proposes first attaches it, a second attachment is a
// deterministic no-op under membership.Apply, and every slot clears when
// its engine observes the change finalized.
func (c *Cluster) proposeChange(change types.ConfigChange) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started || c.stopped {
		return fmt.Errorf("banyan: cluster is not running")
	}
	proposed := false
	for _, r := range c.reconfigs {
		if r != nil {
			r.Propose(change)
			proposed = true
		}
	}
	if !proposed {
		return fmt.Errorf("banyan: reconfiguration requires a Banyan protocol, got %q", c.cfg.Protocol)
	}
	return nil
}

// Epoch returns the validator-set epoch a replica currently operates in
// (0 for the single-epoch baselines or an invalid replica). Safe to poll
// while the cluster runs; tests use it to await an epoch change.
func (c *Cluster) Epoch(replica int) uint32 {
	h := c.historyOf(replica)
	if h == nil {
		return 0
	}
	return h.Current().Epoch()
}

// MemberIDs returns the validator IDs of a replica's current epoch, in
// set order (nil for baselines or an invalid replica).
func (c *Cluster) MemberIDs(replica int) []int {
	h := c.historyOf(replica)
	if h == nil {
		return nil
	}
	members := h.Current().Members()
	out := make([]int, len(members))
	for i, m := range members {
		out[i] = int(m)
	}
	return out
}

// historyOf returns a replica's validator-set history, or nil when the
// engine has none (baseline protocols). The History handle is fixed at
// engine construction and internally synchronized, so reading it while
// the node loop owns the engine is safe.
func (c *Cluster) historyOf(replica int) *membership.History {
	c.mu.Lock()
	defer c.mu.Unlock()
	if replica < 0 || replica >= len(c.engines) {
		return nil
	}
	h, ok := c.engines[replica].(interface{ History() *membership.History })
	if !ok {
		return nil
	}
	return h.History()
}

// pump converts node commit events into the public Commit stream.
func (c *Cluster) pump() {
	defer close(c.commits)
	for {
		select {
		case <-c.done:
			return
		case ev := <-c.rawCommit:
			for _, b := range ev.Blocks {
				commit := Commit{
					Round:        uint64(b.Round),
					Epoch:        b.Epoch,
					BlockID:      b.ID().String(),
					Proposer:     int(b.Proposer),
					Transactions: decodeTransactions(c.observerStore(), b.Payload),
					PayloadBytes: b.Payload.Size(),
					Path:         pathOf(ev.Explicit),
					At:           ev.At,
				}
				select {
				case c.commits <- commit:
				case <-c.done:
					return
				}
			}
		}
	}
}

// observerStore returns replica 0's dissemination store (nil without
// Dissem); RestartReplica swaps the slot under c.mu.
func (c *Cluster) observerStore() *dissem.Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stores[0]
}

// decodeTransactions resolves a committed payload to its transaction
// list: inline payloads decode directly; digest-list payloads decode
// every referenced batch body (in ref order, from the local store —
// delivery gating guarantees the bodies arrived before the commit) and
// then the inline tail.
func decodeTransactions(store *dissem.Store, p types.Payload) [][]byte {
	if !p.HasBatches() {
		return mempool.DecodeBatch(p)
	}
	var txs [][]byte
	if store != nil {
		if bodies, ok := store.Bodies(p); ok {
			for _, body := range bodies {
				txs = append(txs, mempool.DecodeBatch(body)...)
			}
		}
	}
	if len(p.Data) > 0 {
		txs = append(txs, mempool.DecodeBatch(types.BytesPayload(p.Data))...)
	}
	return txs
}

// Submit queues a transaction on one replica's mempool (round-robin); it
// is proposed the next time that replica leads a round. It reports false
// when the mempool rejected the transaction.
func (c *Cluster) Submit(tx []byte) bool {
	c.mu.Lock()
	i := c.nextPool
	// Round-robin over the genesis members only: a provisioned joiner's
	// pool would strand transactions until (unless) it ever joins and
	// leads a round. SubmitTo reaches joiner pools explicitly.
	c.nextPool = (c.nextPool + 1) % c.params.N
	c.mu.Unlock()
	return c.pools[i].Submit(tx)
}

// SubmitTo queues a transaction on a specific replica's mempool.
func (c *Cluster) SubmitTo(replica int, tx []byte) bool {
	if replica < 0 || replica >= len(c.pools) {
		return false
	}
	return c.pools[replica].Submit(tx)
}

// SubmitAs queues a transaction on a specific replica's mempool under a
// submitter identity — the shard key of the submitter-sharded drain —
// returning the mempool's typed rejection (mempool.ErrTxTooLarge,
// mempool.ErrPoolFull, mempool.ErrTxEmpty) on failure.
func (c *Cluster) SubmitAs(replica int, submitter uint64, tx []byte) error {
	if replica < 0 || replica >= len(c.pools) {
		return fmt.Errorf("banyan: no replica %d", replica)
	}
	return c.pools[replica].SubmitFrom(submitter, tx)
}

// Commits streams finalized blocks as observed by replica 0. The channel
// closes on Stop.
func (c *Cluster) Commits() <-chan Commit { return c.commits }

// N returns the cluster size.
func (c *Cluster) N() int { return c.params.N }

// ParamsUsed returns the validated (n, f, p).
func (c *Cluster) ParamsUsed() (n, f, p int) {
	return c.params.N, c.params.F, c.params.P
}

// Faults returns safety faults reported by any replica (must stay empty).
func (c *Cluster) Faults() []error {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]error, len(c.faults))
	copy(out, c.faults)
	return out
}

// Metrics returns a replica's protocol counters, including its mempool's
// typed admission rejections. Only valid after Stop.
func (c *Cluster) Metrics(replica int) map[string]int64 {
	c.mu.Lock()
	if replica < 0 || replica >= len(c.nodes) {
		c.mu.Unlock()
		return nil
	}
	n := c.nodes[replica] // RestartReplica swaps this slot under c.mu
	pool := c.pools[replica]
	c.mu.Unlock()
	m := n.Metrics()
	if m != nil && pool != nil {
		pool.Metrics(m)
	}
	return m
}

// CrashReplica simulates a crash of one replica: its node stops, and its
// WAL abandons the unsynced group-commit tail exactly as a dying process
// would. The rest of the cluster keeps running (crash at most f replicas
// to preserve liveness). RestartReplica brings it back.
func (c *Cluster) CrashReplica(replica int) error {
	c.mu.Lock()
	if replica < 0 || replica >= len(c.nodes) {
		c.mu.Unlock()
		return fmt.Errorf("banyan: no replica %d", replica)
	}
	if !c.started || c.stopped || c.crashed[replica] || c.crashing[replica] {
		c.mu.Unlock()
		return fmt.Errorf("banyan: replica %d is not running", replica)
	}
	c.crashing[replica] = true
	n, rec := c.nodes[replica], c.recs[replica]
	c.mu.Unlock()
	n.Stop()
	if rec != nil {
		rec.Crash()
	}
	// Flip to crashed only now that the log is closed: RestartReplica's
	// guard keys on crashed, so recovery can never reopen (and repair) a
	// directory a still-live Log is appending to.
	c.mu.Lock()
	c.crashing[replica] = false
	c.crashed[replica] = true
	c.mu.Unlock()
	return nil
}

// RestartReplica rebuilds a crashed replica from its write-ahead log and
// starts it: the log replays into a fresh engine (restoring blocktree,
// certificates, and the replica's own voting record), and the replica
// rejoins the cluster at its recovered round, catching up on whatever
// finalized while it was down via the sync subprotocol. Requires WALDir;
// restarting replica 0 re-delivers its recovered chain on Commits.
// Engines that cannot replay a journal (the hotstuff/streamlet
// baselines do not implement wal.Replayer) are refused rather than
// silently restarted fresh, which would risk equivocation.
func (c *Cluster) RestartReplica(replica int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if replica < 0 || replica >= len(c.nodes) {
		return fmt.Errorf("banyan: no replica %d", replica)
	}
	if c.cfg.WALDir == "" {
		return fmt.Errorf("banyan: RestartReplica requires WALDir")
	}
	if !c.started || c.stopped || !c.crashed[replica] {
		return fmt.Errorf("banyan: replica %d is not crashed", replica)
	}
	// A dead process's sockets drop whatever peers sent while it was
	// down; the channel hub queues it instead. Discard that backlog so
	// recovery goes through WAL replay and the sync subprotocol, not
	// through a delivery channel no real deployment has.
	c.hub.Drain(types.ReplicaID(replica))
	if err := c.buildReplica(replica); err != nil {
		return err
	}
	if err := c.nodes[replica].Start(); err != nil {
		return err
	}
	c.crashed[replica] = false
	return nil
}

// RestartReplicaFresh simulates recovery from total disk loss: the
// crashed replica's write-ahead log directory is deleted and the
// replica restarts with no durable state at all. It cannot replay — it
// rebuilds its chain from peers instead, through sync responses while
// peers still hold the blocks and through quorum-certified snapshot
// state sync once they have pruned past its position. The replica's
// voting record is gone with the disk, so unlike RestartReplica this is
// only crash-safe when the replica did not vote in any round still
// undecided — the same caveat any real deployment restoring from
// backup carries. Requires WALDir and a crashed replica.
func (c *Cluster) RestartReplicaFresh(replica int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if replica < 0 || replica >= len(c.nodes) {
		return fmt.Errorf("banyan: no replica %d", replica)
	}
	if c.cfg.WALDir == "" {
		return fmt.Errorf("banyan: RestartReplicaFresh requires WALDir")
	}
	if !c.started || c.stopped || !c.crashed[replica] {
		return fmt.Errorf("banyan: replica %d is not crashed", replica)
	}
	if err := os.RemoveAll(filepath.Join(c.cfg.WALDir, fmt.Sprintf("replica-%d", replica))); err != nil {
		return fmt.Errorf("banyan: wiping replica %d log: %w", replica, err)
	}
	// Same socket semantics as RestartReplica: nothing queued while the
	// process was dead survives into the restarted life.
	c.hub.Drain(types.ReplicaID(replica))
	if err := c.buildReplica(replica); err != nil {
		return err
	}
	if err := c.nodes[replica].Start(); err != nil {
		return err
	}
	c.crashed[replica] = false
	return nil
}

// FinalizedChain returns a replica's finalized block IDs (hex, round
// order). Only valid after Stop; integration tests use it to assert
// byte-identical chains across live and restarted replicas.
func (c *Cluster) FinalizedChain(replica int) []string {
	if replica < 0 || replica >= len(c.engines) {
		return nil
	}
	select {
	case <-c.done:
	default:
		return nil // still running: the engine is owned by its node loop
	}
	c.mu.Lock()
	eng := c.engines[replica]
	c.mu.Unlock()
	treed, ok := eng.(interface{ Tree() *blocktree.Tree })
	if !ok {
		return nil
	}
	ids := treed.Tree().FinalizedChain()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.String()
	}
	return out
}

// Stop shuts the cluster down: replicas first (flushing WAL tails), then
// the hub.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	// A replica mid-CrashReplica (crashing set, crashed not yet) must be
	// treated as crashed: closing its log here would flush the very tail
	// the simulated crash is about to abandon.
	crashed := make([]bool, len(c.crashed))
	for i := range crashed {
		crashed[i] = c.crashed[i] || c.crashing[i]
	}
	held := make([]bool, len(c.held))
	copy(held, c.held)
	c.mu.Unlock()
	for i, n := range c.nodes {
		if held[i] {
			// Still held out of Start: its node loop never ran, so Stop
			// would wait forever; its log (if any) has nothing buffered.
			if rec := c.recs[i]; rec != nil {
				if err := rec.Close(); err != nil {
					c.recordFault(err)
				}
			}
			continue
		}
		n.Stop()
		if rec := c.recs[i]; rec != nil && !crashed[i] {
			// A log that died mid-run means the replica ran without
			// durability; surface it instead of reporting a clean run.
			if err := rec.Err(); err != nil {
				c.recordFault(err)
			}
			if err := rec.Close(); err != nil {
				c.recordFault(err)
			}
		}
	}
	c.hub.Close()
	close(c.done)
}

func (c *Cluster) recordFault(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.faults = append(c.faults, err)
}
