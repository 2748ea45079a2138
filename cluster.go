package banyan

import (
	"fmt"
	"os"
	"sync"
	"time"

	"banyan/internal/obs"
	"banyan/internal/stack"
	"banyan/internal/transport/channel"
	"banyan/internal/types"
)

// ClusterConfig configures an in-process cluster. A cluster tolerates
// the largest f that N and P allow, caps blocks at 1 MiB of transactions
// and, under Dissem, cuts 64 KiB batches; ReplicaConfig sets all three.
type ClusterConfig struct {
	// N is the number of replicas in the genesis validator set. Required.
	N int
	// MaxN is the number of replica identities to provision (keys, hub
	// slots, engines); zero means N. Identities in [N, MaxN) are not
	// genesis members: they boot later via JoinReplica — cold, catching up
	// through state sync — and become voters only when a finalized
	// ConfigChange admits them (AddValidator).
	MaxN int
	// P is Banyan's fast-path slack (1 <= p <= f); zero picks 1.
	P int
	// Delta is the message-delay bound Δ used for rank delays and epoch
	// lengths; zero picks a LAN-appropriate 10ms.
	Delta time.Duration
	// LinkDelay simulates a uniform one-way delay between replicas; zero
	// means direct in-memory delivery.
	LinkDelay time.Duration
	// Scheme selects the signature scheme ("ed25519" default for clusters,
	// "hmac" for cheap simulation).
	Scheme string
	// Seed makes key generation deterministic (a production deployment
	// would exchange real keys; the cluster bootstraps a demo PKI).
	Seed uint64
	// WALDir, when non-empty, gives every replica a write-ahead log in
	// WALDir/replica-<i>. Replicas journal the proposals and votes they
	// sign, each durable before it is sent; every PruneKeep finalized
	// rounds they checkpoint and truncate the log, so restart work and
	// disk usage stay bounded by that window. CrashReplica and
	// RestartReplica then express crash-restart scenarios: a restarted
	// replica restores its voting record (so it cannot equivocate) and
	// takes the chain back from its peers, re-delivering commits from its
	// last checkpoint onward as catch-up lands them — the application is
	// assumed to have durably applied (or snapshotted) everything the
	// checkpoint summarizes.
	WALDir string
	// DeepPrune evicts finalized block bodies below the Banyan engines'
	// prune floor. Without it a replica keeps every finalized body (its
	// block tree's maps hold only the recent rounds; the finalized chain
	// is a log beside them) and serves catch-up from its whole history.
	// With it replicas hold (and can serve catch-up from) only a bounded
	// window of the chain; peers that fall behind that window — fresh
	// joiners, disk-loss restarts — recover via peer snapshot state sync
	// instead of block-by-block replay.
	DeepPrune bool
	// PruneKeep is how many rounds below the finalized height the Banyan
	// engines retain (0 = 16). Vote ledgers are held from fin − PruneKeep
	// up (PruneKeep+1 finalized rounds plus the open ones) and reused as
	// finalization passes them; every
	// PruneKeep finalized rounds the engines drop the rest of the state
	// below fin − PruneKeep (blocks, batches, the WAL behind a
	// checkpoint), so of that a replica holds between PruneKeep and
	// 2×PruneKeep rounds.
	PruneKeep int
	// Dissem decouples payload dissemination from ordering: replicas cut
	// mempool transactions into digest-addressed batches broadcast off
	// the consensus path, blocks commit ordered digest lists instead of
	// transaction bytes, and finalized delivery — never voting — waits for
	// batch availability (fetch-on-miss from the proposer). Submit
	// rejects a transaction larger than a batch. See internal/dissem.
	Dissem bool
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

// options is the one mapping from the public fields to the stack's
// options; beyond it NewCluster reads only what is the hub's own business
// (LinkDelay, HoldStart). Adding a knob means adding it to stack.Options
// and to the mappings that expose it (TestOptionsReadEveryField fails on
// a field no mapping reads).
func (cfg ClusterConfig) options() stack.Options {
	o := stack.Options{
		N:              cfg.N,
		P:              cfg.P,
		MaxN:           cfg.MaxN,
		Delta:          cfg.Delta,
		Scheme:         cfg.Scheme,
		Seed:           cfg.Seed,
		DeepPrune:      cfg.DeepPrune,
		PruneKeep:      types.Round(cfg.PruneKeep),
		Dissem:         cfg.Dissem,
		WALDir:         cfg.WALDir,
		Obs:            cfg.Obs,
		ObsTraceEvents: cfg.ObsTraceEvents,
	}
	if o.Delta == 0 {
		o.Delta = 10 * time.Millisecond
		if cfg.LinkDelay > 0 {
			o.Delta = 2*cfg.LinkDelay + 5*time.Millisecond
		}
	}
	if o.Scheme == "" {
		o.Scheme = "ed25519"
	}
	return o
}

// Cluster is an n-replica consensus cluster running in one process: a
// channel hub and one host per provisioned identity. It exposes the
// replica-0 application view: submitted transactions are load-balanced
// across all replicas' mempools, and finalized blocks are streamed from
// replica 0 (all replicas finalize identical chains).
type Cluster struct {
	opts   stack.Options
	hub    *channel.Hub
	hosts  []*host
	faults faultLog

	mu       sync.Mutex
	nextPool int
	started  bool
	stopped  bool
	crashed  []bool
	crashing []bool // teardown in progress: not running, not yet restartable
	held     []bool // excluded from Start, waiting for JoinReplica

	done chan struct{}
}

// NewCluster assembles a cluster; call Start to run it.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	opts, err := cfg.options().Fill()
	if err != nil {
		return nil, err
	}
	keyring, signers, err := opts.Keys()
	if err != nil {
		return nil, err
	}
	var hubOpts channel.Options
	if d := cfg.LinkDelay; d > 0 {
		hubOpts.Delay = func(_, _ types.ReplicaID) time.Duration { return d }
	}
	c := &Cluster{
		opts:     opts,
		hub:      channel.NewHub(opts.MaxN, hubOpts),
		hosts:    make([]*host, opts.MaxN),
		crashed:  make([]bool, opts.MaxN),
		crashing: make([]bool, opts.MaxN),
		held:     make([]bool, opts.MaxN),
		done:     make(chan struct{}),
	}
	for _, h := range cfg.HoldStart {
		if h < 0 || h >= opts.MaxN {
			return nil, fmt.Errorf("banyan: HoldStart replica %d out of range (n=%d)", h, opts.MaxN)
		}
		c.held[h] = true
	}
	// Provisioned non-genesis identities are implicitly held: they enter
	// via JoinReplica once (or just before) a ConfigChange admits them.
	for i := opts.N; i < opts.MaxN; i++ {
		c.held[i] = true
	}
	for i := range c.hosts {
		id := types.ReplicaID(i)
		c.hosts[i] = newHost(id, opts, keyring, signers[i], opts.ReplicaWALDir(id), nil)
		if i == 0 {
			c.hosts[i].commits = make(chan Commit, commitBuffer)
		}
		if err := c.buildReplica(i); err != nil {
			// The replicas built so far never started, but their logs are
			// open: each holds a segment file and a group-commit goroutine.
			for _, built := range c.hosts[:i] {
				built.closeLog(true, &c.faults)
			}
			return nil, err
		}
	}
	return c, nil
}

// Observer returns a replica's observability bundle (nil without
// ClusterConfig.Obs or for an invalid replica). The bundle is fixed at
// construction and internally synchronized: histograms and the tracer
// are safe to read while the cluster runs, and it survives
// crash-restarts of its replica.
func (c *Cluster) Observer(replica int) *obs.Observer {
	if h := c.host(replica); h != nil {
		return h.surv.Obs
	}
	return nil
}

// buildReplica assembles (or reassembles, after a crash) replica i over
// the shared hub.
func (c *Cluster) buildReplica(i int) error {
	return c.hosts[i].build(c.hub.Transport(types.ReplicaID(i)), c.faults.record)
}

// Start boots every replica.
func (c *Cluster) Start() error {
	c.mu.Lock()
	if c.started || c.stopped {
		c.mu.Unlock()
		return fmt.Errorf("banyan: cluster already started or stopped")
	}
	c.started = true
	c.mu.Unlock()
	for i, h := range c.hosts {
		if c.held[i] {
			continue
		}
		if err := h.node.Start(); err != nil {
			return err
		}
	}
	return nil
}

// host returns a replica's host, or nil for an invalid replica.
func (c *Cluster) host(replica int) *host {
	if replica < 0 || replica >= len(c.hosts) {
		return nil
	}
	return c.hosts[replica]
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
	h := c.host(replica)
	if h == nil {
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
	c.hub.Drain(h.id)
	if err := h.node.Start(); err != nil {
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
// keyring.
func (c *Cluster) AddValidator(replica int) error {
	return c.proposeChange(types.ConfigAdd, replica)
}

// RemoveValidator proposes evicting a validator from the set. From the
// activation round on, the evicted replica's votes carry no weight and
// certificates are verified against the shrunken set; the replica itself
// keeps running as a non-voting observer.
func (c *Cluster) RemoveValidator(replica int) error {
	return c.proposeChange(types.ConfigRemove, replica)
}

// proposeChange hands a change to every replica's reconfiguration slot:
// whichever leader proposes first attaches it, a second attachment is a
// deterministic no-op under membership.Apply, and every slot clears when
// its engine observes the change finalized.
func (c *Cluster) proposeChange(op types.ConfigOp, replica int) error {
	change, err := c.hosts[0].configChange(op, replica)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.started || c.stopped {
		return fmt.Errorf("banyan: cluster is not running")
	}
	for _, h := range c.hosts {
		h.propose(change)
	}
	return nil
}

// Epoch returns the validator-set epoch a replica currently operates in
// (0 for an invalid replica). Safe to poll while the cluster runs; tests
// use it to await an epoch change.
func (c *Cluster) Epoch(replica int) uint32 {
	if h := c.host(replica); h != nil {
		return h.epoch()
	}
	return 0
}

// MemberIDs returns the validator IDs of a replica's current epoch, in
// set order (nil for an invalid replica).
func (c *Cluster) MemberIDs(replica int) []int {
	if h := c.host(replica); h != nil {
		return h.memberIDs()
	}
	return nil
}

// Submit queues a transaction on one replica's mempool (round-robin). It
// reports false when the mempool rejected the transaction. Without Dissem,
// that replica proposes it the next time it leads a round. With Dissem,
// that replica broadcasts it in a batch, and the next leader that holds
// the batch proposes it.
func (c *Cluster) Submit(tx []byte) bool {
	c.mu.Lock()
	i := c.nextPool
	// Round-robin over the genesis members only: a provisioned joiner's
	// pool would strand transactions until (unless) it ever joins and
	// leads a round. SubmitTo reaches joiner pools explicitly.
	c.nextPool = (c.nextPool + 1) % c.opts.N
	c.mu.Unlock()
	return c.hosts[i].pool.Submit(tx)
}

// SubmitTo queues a transaction on a specific replica's mempool.
func (c *Cluster) SubmitTo(replica int, tx []byte) bool {
	h := c.host(replica)
	return h != nil && h.pool.Submit(tx)
}

// SubmitAs queues a transaction on a specific replica's mempool under a
// submitter identity — the shard key of the submitter-sharded drain —
// returning the mempool's typed rejection (mempool.ErrTxTooLarge,
// mempool.ErrPoolFull, mempool.ErrTxEmpty) on failure.
func (c *Cluster) SubmitAs(replica int, submitter uint64, tx []byte) error {
	h := c.host(replica)
	if h == nil {
		return fmt.Errorf("banyan: no replica %d", replica)
	}
	return h.pool.SubmitFrom(submitter, tx)
}

// Commits streams finalized blocks as observed by replica 0, buffering
// commitBuffer of them; while the buffer is full, further ones are
// dropped and counted (Metrics(0)["commits_dropped"]). The channel closes
// on Stop.
func (c *Cluster) Commits() <-chan Commit { return c.hosts[0].commits }

// N returns the cluster size.
func (c *Cluster) N() int { return c.opts.N }

// Faults returns safety faults reported by any replica (must stay empty).
func (c *Cluster) Faults() []error { return c.faults.list() }

// Metrics returns a replica's protocol counters, including its mempool's
// typed admission rejections and the messages addressed to it that the
// hub dropped ("transport_dropped"). Only valid after Stop.
func (c *Cluster) Metrics(replica int) map[string]int64 {
	h := c.host(replica)
	if h == nil {
		return nil
	}
	m := h.metrics()
	if m != nil {
		m["transport_dropped"] = c.hub.Dropped(h.id)
	}
	return m
}

// CrashReplica simulates a crash of one replica: its node stops, and its
// WAL abandons the unsynced group-commit tail exactly as a dying process
// would. The rest of the cluster keeps running (crash at most f replicas
// to preserve liveness). RestartReplica brings it back.
func (c *Cluster) CrashReplica(replica int) error {
	c.mu.Lock()
	h := c.host(replica)
	if h == nil {
		c.mu.Unlock()
		return fmt.Errorf("banyan: no replica %d", replica)
	}
	if !c.started || c.stopped || c.crashed[replica] || c.crashing[replica] {
		c.mu.Unlock()
		return fmt.Errorf("banyan: replica %d is not running", replica)
	}
	c.crashing[replica] = true
	c.mu.Unlock()
	h.node.Stop()
	h.closeLog(false, &c.faults)
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
// starts it: a fresh engine restores its checkpoint and the replica's
// own voting record from the log, and the replica rejoins the cluster
// from its checkpoint, catching up on everything finalized since via the
// sync subprotocol. Requires WALDir; restarting replica 0 re-delivers
// the chain above its checkpoint on Commits.
func (c *Cluster) RestartReplica(replica int) error {
	return c.restart(replica, false)
}

// RestartReplicaFresh simulates recovery from total disk loss: the
// crashed replica's write-ahead log directory is deleted and the
// replica restarts with no durable state at all. It has no checkpoint —
// it rebuilds its chain from peers, through sync responses while
// peers still hold the blocks and through quorum-certified snapshot
// state sync once they have pruned past its position. The replica's
// voting record is gone with the disk, so unlike RestartReplica this is
// only crash-safe when the replica did not vote in any round still
// undecided — the same caveat any real deployment restoring from
// backup carries. Requires WALDir and a crashed replica.
func (c *Cluster) RestartReplicaFresh(replica int) error {
	return c.restart(replica, true)
}

func (c *Cluster) restart(replica int, diskLoss bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.host(replica)
	if h == nil {
		return fmt.Errorf("banyan: no replica %d", replica)
	}
	if h.surv.WALDir == "" {
		return fmt.Errorf("banyan: restarting a replica requires WALDir")
	}
	if !c.started || c.stopped || !c.crashed[replica] {
		return fmt.Errorf("banyan: replica %d is not crashed", replica)
	}
	if diskLoss {
		if err := os.RemoveAll(h.surv.WALDir); err != nil {
			return fmt.Errorf("banyan: wiping replica %d log: %w", replica, err)
		}
	}
	// A dead process's sockets drop whatever peers sent while it was
	// down; the channel hub queues it instead. Discard that backlog so
	// recovery goes through the WAL and the sync subprotocol, not
	// through a delivery channel no real deployment has.
	c.hub.Drain(h.id)
	if err := c.buildReplica(replica); err != nil {
		return err
	}
	if err := h.node.Start(); err != nil {
		return err
	}
	c.crashed[replica] = false
	return nil
}

// FinalizedChain returns a replica's finalized block IDs (hex, round
// order). Only valid after Stop; integration tests use it to assert
// byte-identical chains across live and restarted replicas.
func (c *Cluster) FinalizedChain(replica int) []string {
	h := c.host(replica)
	if h == nil {
		return nil
	}
	select {
	case <-c.done:
		return h.finalizedChain()
	default:
		return nil // still running: the engine is owned by its node loop
	}
}

// Stop shuts the cluster down: replicas first (flushing WAL tails), then
// the hub. Commits closes; a cluster stopped before Start never starts.
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
	c.mu.Unlock()
	for i, h := range c.hosts {
		h.node.Stop()
		if !crashed[i] {
			h.closeLog(true, &c.faults)
		}
	}
	c.hub.Close()
	close(c.done)
	close(c.hosts[0].commits) // every node loop has exited: none sends
}
