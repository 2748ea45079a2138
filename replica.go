package banyan

import (
	"fmt"
	"sync"
	"time"

	"banyan/internal/metrics"
	"banyan/internal/obs"
	"banyan/internal/stack"
	"banyan/internal/transport/tcp"
	"banyan/internal/types"
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
	MaxN int
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
	// WALDir, when non-empty, enables the write-ahead log: the proposals
	// and votes this replica signs are journaled to the directory, each
	// durable before it is sent, plus a checkpoint every PruneKeep
	// finalized rounds. A restarted replica (same WALDir) restores its
	// voting record from the log on Start, so it cannot equivocate, and
	// takes the chain back from its peers, re-delivering on Commits
	// everything above its last checkpoint as catch-up lands it.
	WALDir string
	// DeepPrune evicts finalized block bodies below the engine's prune
	// floor; without it the replica keeps every finalized body and serves
	// catch-up from all of them. See ClusterConfig.DeepPrune. A
	// deployment running DeepPrune serves catch-up from a bounded window,
	// and replicas that lose their disk rejoin via peer snapshot state
	// sync (point a fresh Replica at an empty WALDir and Start it).
	DeepPrune bool
	// PruneKeep is how many rounds below the finalized height the engine
	// retains (0 = 16): vote ledgers from fin − PruneKeep up (PruneKeep+1
	// finalized rounds plus the open ones), reused as finalization passes
	// them, and, dropped every PruneKeep finalized
	// rounds, between PruneKeep and 2×PruneKeep rounds of blocks, batches
	// and WAL; see ClusterConfig.PruneKeep.
	PruneKeep int
	// Dissem decouples payload dissemination from ordering (see
	// ClusterConfig.Dissem): batches travel out-of-band, blocks commit
	// digest lists, delivery waits for availability. Every replica of a
	// deployment must use the same value.
	Dissem bool
	// DissemBatchBytes is the dissemination batch cut size; transactions
	// larger than this are rejected at Submit. Zero picks 64 KiB.
	DissemBatchBytes int
	// Obs enables the observability layer: block-lifecycle tracing,
	// stage-latency histograms (commit latency, verify time, WAL flush,
	// dissem fetch, delivery wait), and gauges, all
	// registered in the replica's metrics registry. Implied by ObsAddr.
	Obs bool
	// ObsAddr, when non-empty, serves the observability endpoint on this
	// address: /metrics (Prometheus text), /debug/pprof/*, /trace
	// (Chrome trace JSON), /trace/summary, /slow. Implies Obs.
	ObsAddr string
	// ObsTraceEvents overrides the tracer ring capacity
	// (0 = obs.DefaultTraceEvents).
	ObsTraceEvents int
	// Logf, when non-nil, receives transport diagnostics.
	Logf func(format string, args ...any)
}

// options is the one mapping from the public fields to the stack's
// options (see ClusterConfig.options); beyond it NewReplica reads only
// the transport's own fields (ID, addresses, Logf) and ObsAddr.
func (cfg ReplicaConfig) options() stack.Options {
	o := stack.Options{
		N:                cfg.N,
		F:                cfg.F,
		P:                cfg.P,
		MaxN:             cfg.MaxN,
		Delta:            cfg.Delta,
		BlockBytes:       cfg.MaxBlockBytes,
		Scheme:           cfg.Scheme,
		Seed:             cfg.ClusterSeed,
		DeepPrune:        cfg.DeepPrune,
		PruneKeep:        types.Round(cfg.PruneKeep),
		Dissem:           cfg.Dissem,
		DissemBatchBytes: cfg.DissemBatchBytes,
		WALDir:           cfg.WALDir,
		Obs:              cfg.Obs || cfg.ObsAddr != "",
		ObsTraceEvents:   cfg.ObsTraceEvents,
	}
	if o.Delta == 0 {
		o.Delta = 50 * time.Millisecond
	}
	if o.Scheme == "" {
		o.Scheme = "ed25519"
	}
	return o
}

// Replica is one consensus replica over TCP: a TCP transport and one host.
type Replica struct {
	host    *host
	tr      *tcp.Transport
	obsAddr string
	obsSrv  *obs.Server // nil without ObsAddr
	faults  faultLog

	mu      sync.Mutex
	started bool
	stopped bool
}

// NewReplica assembles a replica; call Start to run it.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	opts, err := cfg.options().Fill()
	if err != nil {
		return nil, err
	}
	if cfg.ID < 0 || cfg.ID >= opts.MaxN {
		return nil, fmt.Errorf("banyan: replica id %d out of range (maxN=%d)", cfg.ID, opts.MaxN)
	}
	keyring, signers, err := opts.Keys()
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
	// One registry for the transport's counters and the observability
	// instruments, so both export through one /metrics page.
	counters := metrics.NewRegistry()
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
	r := &Replica{
		host:    newHost(types.ReplicaID(cfg.ID), opts, keyring, signers[cfg.ID], opts.WALDir, counters),
		tr:      tr,
		obsAddr: cfg.ObsAddr,
	}
	r.host.commits = make(chan Commit, commitBuffer)
	if err := r.host.build(tr, r.faults.record); err != nil {
		tr.Close()
		return nil, err
	}
	return r, nil
}

// Addr returns the bound listen address.
func (r *Replica) Addr() string { return r.tr.Addr() }

// Start runs the replica. It fails on a replica already started or
// stopped.
func (r *Replica) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.stopped {
		return fmt.Errorf("banyan: replica already started or stopped")
	}
	if r.obsAddr != "" {
		srv, err := obs.Serve(r.obsAddr, r.host.surv.Obs, r.host.id)
		if err != nil {
			return fmt.Errorf("banyan: obs endpoint: %w", err)
		}
		r.obsSrv = srv
	}
	r.started = true
	return r.host.node.Start()
}

// Observer returns the replica's observability bundle (nil unless Obs or
// ObsAddr is set). Histograms and the tracer are internally synchronized
// and safe to read while the replica runs.
func (r *Replica) Observer() *obs.Observer { return r.host.surv.Obs }

// ObsAddr returns the bound observability endpoint address ("" when
// ObsAddr was not configured or the replica has not started).
func (r *Replica) ObsAddr() string {
	if r.obsSrv == nil {
		return ""
	}
	return r.obsSrv.Addr()
}

// Submit queues a transaction on this replica's mempool. Without Dissem,
// this replica proposes it the next time it leads a round. With Dissem,
// this replica broadcasts it in a batch, and the next leader that holds
// the batch proposes it.
func (r *Replica) Submit(tx []byte) bool { return r.host.pool.Submit(tx) }

// SubmitErr queues a transaction, returning the mempool's typed
// rejection (mempool.ErrTxTooLarge, mempool.ErrPoolFull,
// mempool.ErrTxEmpty) on failure. In dissemination mode a transaction
// larger than DissemBatchBytes is refused here — never truncated.
func (r *Replica) SubmitErr(tx []byte) error { return r.host.pool.SubmitErr(tx) }

// SubmitFrom queues a transaction under a submitter identity, the shard
// key of the mempool's submitter-sharded drain.
func (r *Replica) SubmitFrom(submitter uint64, tx []byte) error {
	return r.host.pool.SubmitFrom(submitter, tx)
}

// Commits streams blocks finalized by this replica, buffering
// commitBuffer of them; while the buffer is full, further ones are
// dropped and counted (Metrics()["commits_dropped"]). The channel closes
// on Stop or Crash.
func (r *Replica) Commits() <-chan Commit { return r.host.commits }

// ProposeAddValidator queues a ConfigChange admitting a provisioned
// identity (see MaxN): the next time this replica leads a round it
// attaches the change to its proposal; once a block carrying it
// finalizes at round R the grown set takes effect at R+1. For the change
// to land promptly, call this on every running replica — whichever leads
// first proposes it, and every replica's slot clears when the change
// finalizes.
func (r *Replica) ProposeAddValidator(id int) error {
	return r.proposeChange(types.ConfigAdd, id)
}

// ProposeRemoveValidator queues a ConfigChange evicting a validator; see
// ProposeAddValidator for how changes land. From the activation round on
// the evicted replica's votes carry no weight; it keeps running as a
// non-voting observer.
func (r *Replica) ProposeRemoveValidator(id int) error {
	return r.proposeChange(types.ConfigRemove, id)
}

func (r *Replica) proposeChange(op types.ConfigOp, id int) error {
	change, err := r.host.configChange(op, id)
	if err != nil {
		return err
	}
	r.host.propose(change)
	return nil
}

// Epoch returns the validator-set epoch this replica currently operates
// in. Safe to poll while running.
func (r *Replica) Epoch() uint32 { return r.host.epoch() }

// MemberIDs returns the validator IDs of this replica's current epoch,
// in set order.
func (r *Replica) MemberIDs() []int { return r.host.memberIDs() }

// Faults returns safety faults (must stay empty).
func (r *Replica) Faults() []error { return r.faults.list() }

// Metrics returns the engine counters (plus WAL counters when a WALDir
// is set, transport counters such as "transport_dropped", and the
// commits the stream dropped, "commits_dropped"). Only valid after Stop.
func (r *Replica) Metrics() map[string]int64 { return r.host.metrics() }

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
	r.host.node.Stop()
	r.host.closeLog(flush, &r.faults)
	close(r.host.commits) // the node loop has exited: nothing sends
}
