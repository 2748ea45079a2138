package main

import (
	"fmt"
	"net"
	"path/filepath"
	"time"

	"banyan"
	"banyan/internal/obs"
)

// system is a running 4-replica deployment as the load generator sees
// it. The two implementations are the two public ways to assemble one:
// banyan.Cluster over the channel hub and banyan.Replica over TCP.
type system interface {
	start() error
	// submit queues tx on one replica's mempool; false means refused.
	submit(replica int, tx []byte) bool
	// commits returns one channel per replica whose commit stream the
	// deployment exposes; index 0 is replica 0, the observer.
	commits() []<-chan banyan.Commit
	crash(replica int) error
	restart(replica int) error
	stop()
	faults() []error
	// counters returns a replica's protocol counters; valid after stop.
	counters(replica int) map[string]int64
	// chain returns a replica's finalized block IDs in chain order, or
	// nil when the deployment cannot report it; valid after stop.
	chain(replica int) []string
	observer(replica int) *obs.Observer
}

const replicas = 4

// traceRing is each replica's obs tracer capacity in a traced run: the
// last few seconds of events, which keeps the dumped trace file near
// 10 MB where a ring holding the whole saturated run would make it 90.
const traceRing = 1 << 14

// hubConfig is the part of a hub workload that differs between them.
type hubConfig struct {
	delta     time.Duration
	linkDelay time.Duration
	wal       bool
	dissem    bool
}

type hubSystem struct{ c *banyan.Cluster }

// newHub assembles an n=4 f=1 p=1 ed25519 cluster on the channel hub.
// walDir is used only when cfg.wal is set.
func newHub(cfg hubConfig, seed uint64, traced bool, walDir string) (system, error) {
	cc := banyan.ClusterConfig{
		N:              replicas,
		P:              1,
		Delta:          cfg.delta,
		LinkDelay:      cfg.linkDelay,
		Scheme:         "ed25519",
		Seed:           seed,
		Dissem:         cfg.dissem,
		Obs:            traced,
		ObsTraceEvents: traceRing,
	}
	if cfg.wal {
		cc.WALDir = walDir
	}
	c, err := banyan.NewCluster(cc)
	if err != nil {
		return nil, err
	}
	return &hubSystem{c}, nil
}

func (h *hubSystem) start() error                    { return h.c.Start() }
func (h *hubSystem) submit(r int, tx []byte) bool    { return h.c.SubmitTo(r, tx) }
func (h *hubSystem) commits() []<-chan banyan.Commit { return []<-chan banyan.Commit{h.c.Commits()} }
func (h *hubSystem) crash(r int) error               { return h.c.CrashReplica(r) }
func (h *hubSystem) restart(r int) error             { return h.c.RestartReplica(r) }
func (h *hubSystem) stop()                           { h.c.Stop() }
func (h *hubSystem) faults() []error                 { return h.c.Faults() }
func (h *hubSystem) counters(r int) map[string]int64 { return h.c.Metrics(r) }
func (h *hubSystem) chain(r int) []string            { return h.c.FinalizedChain(r) }
func (h *hubSystem) observer(r int) *obs.Observer    { return h.c.Observer(r) }

type tcpSystem struct{ reps []*banyan.Replica }

// freeLoopbackAddrs binds n ephemeral loopback ports, releases them and
// returns their addresses: NewReplica needs every peer's address before
// any replica listens.
func freeLoopbackAddrs(n int) (map[int]string, error) {
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		addrs[i] = l.Addr().String()
		// Kept open until all n are chosen so no port is handed out twice.
		defer l.Close()
	}
	return addrs, nil
}

// newTCP assembles four replicas over transport/tcp on loopback with
// 256 KiB blocks and deep pruning.
func newTCP(seed uint64, traced bool) (system, error) {
	peers, err := freeLoopbackAddrs(replicas)
	if err != nil {
		return nil, err
	}
	s := &tcpSystem{}
	for i := 0; i < replicas; i++ {
		r, err := banyan.NewReplica(banyan.ReplicaConfig{
			ID:             i,
			N:              replicas,
			P:              1,
			Peers:          peers,
			Delta:          100 * time.Millisecond,
			MaxBlockBytes:  256 << 10,
			Scheme:         "ed25519",
			ClusterSeed:    seed,
			DeepPrune:      true,
			Obs:            traced,
			ObsTraceEvents: traceRing,
		})
		if err != nil {
			// The replicas built so far cannot be stopped before they start
			// (Stop waits for the node loop); the run fails, the process ends.
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		s.reps = append(s.reps, r)
	}
	return s, nil
}

func (t *tcpSystem) start() error {
	for i, r := range t.reps {
		if err := r.Start(); err != nil {
			return fmt.Errorf("starting replica %d: %w", i, err)
		}
	}
	return nil
}

func (t *tcpSystem) submit(r int, tx []byte) bool { return t.reps[r].Submit(tx) }

func (t *tcpSystem) commits() []<-chan banyan.Commit {
	out := make([]<-chan banyan.Commit, len(t.reps))
	for i, r := range t.reps {
		out[i] = r.Commits()
	}
	return out
}

func (t *tcpSystem) crash(int) error   { return fmt.Errorf("tcp workload has no crash schedule") }
func (t *tcpSystem) restart(int) error { return fmt.Errorf("tcp workload has no crash schedule") }

func (t *tcpSystem) stop() {
	for _, r := range t.reps {
		r.Stop()
	}
}

func (t *tcpSystem) faults() []error {
	var out []error
	for i, r := range t.reps {
		for _, err := range r.Faults() {
			out = append(out, fmt.Errorf("replica %d: %w", i, err))
		}
	}
	return out
}

func (t *tcpSystem) counters(r int) map[string]int64 { return t.reps[r].Metrics() }
func (t *tcpSystem) chain(int) []string              { return nil }
func (t *tcpSystem) observer(r int) *obs.Observer    { return t.reps[r].Observer() }

// walDirFor names a fresh WAL root under the output directory.
func walDirFor(outDir, workload string, attempt int) string {
	return filepath.Join(outDir, fmt.Sprintf("wal-%s-%d-%d", workload, time.Now().UnixNano(), attempt))
}
