package integration_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"banyan/internal/core"
	"banyan/internal/crypto"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wal"
	"banyan/internal/wan"
)

// roundLog records each replica's committed block per round. Unlike
// commitLog's positional prefix check, this is keyed by round, so it
// stays meaningful for replicas whose commit stream begins mid-chain —
// disk-loss rejoiners and fresh joiners adopt a snapshot window and
// never re-deliver the deep history below it.
type roundLog struct {
	chains map[types.ReplicaID]map[types.Round]types.BlockID
	faults []error
}

func newRoundLog() *roundLog {
	return &roundLog{chains: make(map[types.ReplicaID]map[types.Round]types.BlockID)}
}

func (l *roundLog) hooks() simnet.Hooks {
	return simnet.Hooks{
		OnCommit: func(node types.ReplicaID, _ time.Time, c protocol.Commit) {
			m := l.chains[node]
			if m == nil {
				m = make(map[types.Round]types.BlockID)
				l.chains[node] = m
			}
			for _, b := range c.Blocks {
				m[b.Round] = b.ID()
			}
		},
		OnFault: func(_ types.ReplicaID, _ time.Time, err error) {
			l.faults = append(l.faults, err)
		},
	}
}

// checkRoundConsistent fails if any two replicas committed different
// blocks at the same round (the safety property, windowed-join safe).
func (l *roundLog) checkRoundConsistent(t *testing.T) {
	t.Helper()
	ref := make(map[types.Round]types.BlockID)
	refNode := make(map[types.Round]types.ReplicaID)
	for node, chain := range l.chains {
		for r, id := range chain {
			if prev, ok := ref[r]; ok {
				if prev != id {
					t.Fatalf("safety violation: round %d committed as %s by replica %d, %s by replica %d",
						r, id, node, prev, refNode[r])
				}
				continue
			}
			ref[r], refNode[r] = id, node
		}
	}
}

// window configures the deep-pruned shape every statesync scenario
// needs: replicas hold (and can serve) only their last 8 finalized
// rounds, so anyone below that window must recover via snapshot.
func window(cfg *core.Config) {
	cfg.DeepPrune = true
	cfg.PruneKeep = 8
}

func mkBanyan(t *testing.T, params types.Params, keyring *crypto.Keyring,
	signers []*crypto.Signer, delta time.Duration,
	id types.ReplicaID, opts ...func(*core.Config)) *core.Engine {
	t.Helper()
	cfg := core.Config{
		Params:  params,
		Self:    id,
		Keyring: keyring,
		Signer:  signers[id],
		Delta:   delta,
		Payloads: protocol.PayloadFunc(func(r types.Round) types.Payload {
			return types.SyntheticPayload(256, uint64(r)<<16|uint64(id))
		}),
	}
	for _, o := range opts {
		o(&cfg)
	}
	e, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDiskLossRejoinViaSnapshot is the scenario of ISSUE 6: a replica
// crashes, its disk dies with it, and it restarts against peers that
// have deep-pruned everything below their finalized window. Pre-fix it
// livelocked re-requesting an unserveable prefix forever; now it must
// fetch a quorum-certified snapshot, adopt the window, and rejoin the
// live rounds — with an empty write-ahead log directory underneath.
func TestDiskLossRejoinViaSnapshot(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	const (
		delta     = 60 * time.Millisecond
		crashAt   = 2 * time.Second
		restartAt = 5 * time.Second
		duration  = 12 * time.Second
	)
	victim := types.ReplicaID(3)
	walRoot := t.TempDir()
	victimDir := func() string {
		return filepath.Join(walRoot, fmt.Sprintf("replica-%d", victim))
	}

	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 42)
	// Only the victim runs behind a recorder: its log exists solely to be
	// destroyed, proving the rejoin owes nothing to local durable state.
	mkVictim := func() protocol.Engine {
		rec, err := wal.NewRecorder(wal.RecorderConfig{
			Dir:     victimDir(),
			Engine:  mkBanyan(t, params, keyring, signers, delta, victim, window),
			Options: wal.Options{Sync: wal.SyncPolicy{EveryRecord: true}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	engines := make([]protocol.Engine, params.N)
	for i := range engines {
		if types.ReplicaID(i) == victim {
			engines[i] = mkVictim()
			continue
		}
		engines[i] = mkBanyan(t, params, keyring, signers, delta, types.ReplicaID(i), window)
	}

	log := newRoundLog()
	hooks := log.hooks()
	postRestart := 0
	restartWall := simnet.Epoch.Add(restartAt)
	baseOnCommit := hooks.OnCommit
	hooks.OnCommit = func(node types.ReplicaID, at time.Time, c protocol.Commit) {
		baseOnCommit(node, at, c)
		if node == victim && at.After(restartWall) {
			postRestart += len(c.Blocks)
		}
	}

	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(params.N, 20*time.Millisecond),
		Seed:     7,
	}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	net.CrashAt(victim, crashAt)
	net.RestartAt(victim, restartAt, func(time.Time) protocol.Engine {
		// The disk is gone: abandon the old recorder and wipe its
		// directory. The replacement starts over an empty log, with no
		// chain, no checkpoints, and no voting record.
		if rec, ok := net.Engine(victim).(*wal.Recorder); ok {
			rec.Crash()
		}
		if err := os.RemoveAll(victimDir()); err != nil {
			t.Errorf("wiping victim log: %v", err)
			return nil
		}
		log.chains[victim] = nil
		return mkVictim()
	})
	net.Run(duration)

	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	log.checkRoundConsistent(t)

	if len(log.chains[0]) < 40 {
		t.Fatalf("cluster committed only %d rounds in %s", len(log.chains[0]), duration)
	}
	if postRestart == 0 {
		t.Fatal("victim never committed after its disk-loss restart — it did not rejoin")
	}
	m := net.Engine(victim).Metrics()
	if m["statesync_fetches"] == 0 {
		t.Error("victim rejoined without a snapshot fetch; the scenario did not exercise state sync")
	}
	if m["wal_replayed_records"] != 0 {
		t.Errorf("victim replayed %d WAL records from a wiped disk", m["wal_replayed_records"])
	}
	// Rejoined means caught up: the victim's highest committed round must
	// be within a few rounds of the observer's.
	maxRound := func(id types.ReplicaID) types.Round {
		var hi types.Round
		for r := range log.chains[id] {
			if r > hi {
				hi = r
			}
		}
		return hi
	}
	if vic, obs := maxRound(victim), maxRound(0); vic < obs-10 {
		t.Errorf("victim's last commit at round %d lags observer's %d", vic, obs)
	}
	t.Logf("victim: post-restart commits %d, fetches %d, rejected %d, bytes %d",
		postRestart, m["statesync_fetches"], m["statesync_rejected"], m["statesync_bytes"])
}

// TestFreshJoinReachesLiveRound: a replica provisioned mid-run (held
// out of the initial start) boots cold against a deep-pruned cluster,
// recovers the finalized window via snapshot state sync, and becomes a
// participant — voting and committing in live rounds.
func TestFreshJoinReachesLiveRound(t *testing.T) {
	params := types.Params{N: 5, F: 1, P: 1}
	const (
		delta    = 60 * time.Millisecond
		joinAt   = 4 * time.Second
		duration = 12 * time.Second
	)
	joiner := types.ReplicaID(4)

	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 42)
	engines := make([]protocol.Engine, params.N)
	for i := range engines {
		engines[i] = mkBanyan(t, params, keyring, signers, delta, types.ReplicaID(i), window)
	}

	log := newRoundLog()
	hooks := log.hooks()
	postJoin := 0
	joinWall := simnet.Epoch.Add(joinAt)
	baseOnCommit := hooks.OnCommit
	hooks.OnCommit = func(node types.ReplicaID, at time.Time, c protocol.Commit) {
		baseOnCommit(node, at, c)
		if node == joiner && at.After(joinWall) {
			postJoin += len(c.Blocks)
		}
	}

	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(params.N, 20*time.Millisecond),
		Seed:     11,
	}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	net.JoinAt(joiner, joinAt)
	net.Run(duration)

	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	log.checkRoundConsistent(t)
	if postJoin == 0 {
		t.Fatal("joiner never committed — it did not reach the live rounds")
	}
	m := net.Engine(joiner).Metrics()
	if m["statesync_fetches"] == 0 {
		t.Error("joiner caught up without a snapshot fetch; the cluster was not window-only")
	}
	if m["votes_sent"] == 0 {
		t.Error("joiner never voted — it observed but did not participate")
	}
	t.Logf("joiner: post-join commits %d, fetches %d, votes %d, rounds started %d",
		postJoin, m["statesync_fetches"], m["votes_sent"], m["rounds"])
}
