package integration_test

import (
	"fmt"
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

// TestCrashRestartFromWAL is the crash-restart scenario of ISSUE 2: f
// replicas are killed mid-run, restarted from their write-ahead logs,
// and must rejoin — re-deriving their pre-crash chain byte-for-byte from
// the journal, then continuing to commit with the cluster, with no
// safety violation anywhere.
func TestCrashRestartFromWAL(t *testing.T) {
	params := types.Params{N: 7, F: 2, P: 1}
	const (
		delta     = 60 * time.Millisecond
		payload   = 512
		crashAt   = 2 * time.Second
		restartAt = 4 * time.Second
		duration  = 10 * time.Second
	)
	victims := []types.ReplicaID{5, 6} // f = 2 replicas
	walRoot := t.TempDir()

	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 42)
	isVictim := func(id types.ReplicaID) bool {
		for _, v := range victims {
			if id == v {
				return true
			}
		}
		return false
	}
	mkEngine := func(id types.ReplicaID) protocol.Engine {
		e, err := core.New(core.Config{
			Params:  params,
			Self:    id,
			Keyring: keyring,
			Signer:  signers[id],
			Delta:   delta,
			Payloads: protocol.PayloadFunc(func(r types.Round) types.Payload {
				return types.SyntheticPayload(payload, uint64(r)<<16|uint64(id))
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Victims fsync per record so their durable prefix — and so the
		// assertions below — do not depend on wall-clock group-commit
		// timing; the survivors (whose logs are never replayed here) ride
		// the default group commit, keeping the test's fsync count down.
		sync := wal.SyncPolicy{}
		if isVictim(id) {
			sync.EveryRecord = true
		}
		rec, err := wal.NewRecorder(wal.RecorderConfig{
			Dir:     filepath.Join(walRoot, fmt.Sprintf("replica-%d", id)),
			Engine:  e,
			Options: wal.Options{Sync: sync},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}

	engines := make([]protocol.Engine, params.N)
	for i := range engines {
		engines[i] = mkEngine(types.ReplicaID(i))
	}

	log := newCommitLog()
	hooks := log.hooks()
	// Count commits each victim finalizes strictly after its restart
	// instant — the proof it rejoined, as opposed to only replaying.
	postRestart := make(map[types.ReplicaID]int)
	restartWall := simnet.Epoch.Add(restartAt)
	baseOnCommit := hooks.OnCommit
	hooks.OnCommit = func(node types.ReplicaID, at time.Time, c protocol.Commit) {
		baseOnCommit(node, at, c)
		for _, v := range victims {
			if node == v && at.After(restartWall) {
				postRestart[node] += len(c.Blocks)
			}
		}
	}

	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(params.N, 20*time.Millisecond),
		Seed:     7,
	}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	preCrashLen := make(map[types.ReplicaID]int)
	for _, v := range victims {
		id := v
		net.CrashAt(id, crashAt)
		net.RestartAt(id, restartAt, func(time.Time) protocol.Engine {
			// The dying process takes its recorder with it; the journal on
			// disk is all the new life gets. The commit log restarts too —
			// the replayed chain must rebuild it from scratch, so the
			// prefix-consistency check below covers replay output as well.
			preCrashLen[id] = len(log.chains[id])
			if rec, ok := net.Engine(id).(*wal.Recorder); ok {
				rec.Crash()
			}
			log.chains[id] = nil
			return mkEngine(id)
		})
	}
	net.Run(duration)

	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	log.checkPrefixConsistent(t)

	refLen := len(log.chains[0])
	if refLen < 40 {
		t.Fatalf("cluster committed only %d blocks in %s", refLen, duration)
	}
	for _, v := range victims {
		rec, ok := net.Engine(v).(*wal.Recorder)
		if !ok {
			t.Fatalf("replica %d is not running behind a recorder", v)
		}
		m := rec.Metrics()
		if m["wal_replayed_records"] == 0 {
			t.Errorf("replica %d replayed no WAL records", v)
		}
		if got, pre := len(log.chains[v]), preCrashLen[v]; got < pre {
			t.Errorf("replica %d recovered %d blocks, had already committed %d before the crash",
				v, got, pre)
		}
		if postRestart[v] == 0 {
			t.Errorf("replica %d never committed after its restart — it did not rejoin", v)
		}
		// The restarted replica must hold (a prefix of) the same chain as
		// the observer — byte-identical block IDs via checkPrefixConsistent
		// — and must have caught up to within a few rounds of the tip.
		if got := len(log.chains[v]); got < refLen-10 {
			t.Errorf("replica %d chain length %d lags observer %d by more than 10", v, got, refLen)
		}
		t.Logf("replica %d: pre-crash %d, final %d (observer %d), post-restart %d, replayed %d records",
			v, preCrashLen[v], len(log.chains[v]), refLen, postRestart[v], m["wal_replayed_records"])
	}
}
