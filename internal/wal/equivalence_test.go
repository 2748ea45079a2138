package wal

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"banyan/internal/core"
	"banyan/internal/crypto"
	"banyan/internal/protocol"
	"banyan/internal/types"
	"banyan/internal/wan"

	"banyan/internal/simnet"
)

// checkpointSimRun drives a deterministic 4-replica simulation with
// replica 0 journaled under the given checkpoint cadence, closes the log
// cleanly, and restarts replica 0 from it into a fresh engine. It
// returns the restored engine and its recorder.
//
// Identical seeds make the two runs of the equivalence test byte-for-
// byte identical executions (HMAC signatures and the simulator are both
// deterministic), so any state difference after restart is attributable
// to checkpointing alone.
func checkpointSimRun(t *testing.T, dir string, every types.Round, simFor time.Duration) (*core.Engine, *Recorder) {
	t.Helper()
	params := types.Params{N: 4, F: 1, P: 1}
	const pruneKeep = 16
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 42)
	mkCore := func(id types.ReplicaID) *core.Engine {
		e, err := core.New(core.Config{
			Params: params, Self: id, Keyring: keyring, Signer: signers[id],
			Delta: 10 * time.Millisecond, PruneKeep: pruneKeep,
			Payloads: protocol.PayloadFunc(func(r types.Round) types.Payload {
				return types.SyntheticPayload(128, uint64(r)<<16|uint64(id))
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	engines := make([]protocol.Engine, params.N)
	for i := range engines {
		engines[i] = mkCore(types.ReplicaID(i))
	}
	rec, err := NewRecorder(RecorderConfig{
		Dir: dir, Engine: engines[0].(*core.Engine), CheckpointEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	engines[0] = rec
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(params.N, 2*time.Millisecond),
		Seed:     7,
	}, simnet.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(simFor)
	// Graceful close: the durable journal is then exactly the record
	// stream, keeping both runs' on-disk state deterministic (torn-tail
	// recovery is covered by the wal corruption tests).
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	restored := mkCore(0)
	rec2, err := NewRecorder(RecorderConfig{
		Dir: dir, Engine: restored, CheckpointEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rec2.Start(simnet.Epoch.Add(simFor)) {
		if f, ok := a.(protocol.SafetyFault); ok {
			t.Fatalf("restart reported safety fault: %v", f.Err)
		}
	}
	return restored, rec2
}

// TestCheckpointReplayEquivalence is the checkpoint correctness
// property: for the same deterministic execution, restarting from a
// checkpointed-and-truncated log restores the identical voting record
// above the checkpoint floor as a restart from the append-only log —
// while replaying an order of magnitude fewer records and keeping the
// directory an order of magnitude smaller.
func TestCheckpointReplayEquivalence(t *testing.T) {
	const (
		pruneKeep = 16
		simFor    = 5 * time.Second // >1000 virtual rounds, comfortably past 10×PruneKeep
	)
	fullDir := filepath.Join(t.TempDir(), "full")
	ckptDir := filepath.Join(t.TempDir(), "ckpt")

	full, fullRec := checkpointSimRun(t, fullDir, 0, simFor)
	ckpt, ckptRec := checkpointSimRun(t, ckptDir, pruneKeep, simFor)

	// The executions were identical, so the restored replicas must agree
	// exactly on the state that prevents equivocation, in every round the
	// checkpointed restart still covers. The append-only restart restores
	// every round it ever voted in.
	fin := ckpt.Tree().FinalizedRound()
	if fin < 10*pruneKeep {
		t.Fatalf("run too short to exercise checkpointing: finalized %d < %d", fin, 10*pruneKeep)
	}
	ckptVotes := ckpt.OwnVotingRecord()
	fullVotes := full.OwnVotingRecord()
	for r := range fullVotes {
		if r+pruneKeep <= fin {
			delete(fullVotes, r)
		}
	}
	if len(ckptVotes) == 0 || !reflect.DeepEqual(fullVotes, ckptVotes) {
		t.Fatalf("voting records diverge above round %d:\n full (%d rounds): %+v\n ckpt (%d rounds): %+v",
			fin-pruneKeep, len(fullVotes), fullVotes, len(ckptVotes), ckptVotes)
	}

	// Bounded-replay claim: after ≥10×PruneKeep finalized rounds, the
	// checkpointed restart replays O(PruneKeep) records — the newest
	// checkpoint plus at most two checkpoint windows of tail records —
	// while the full replay walks all of history.
	fullReplayed := fullRec.Metrics()["wal_replayed_records"]
	ckptReplayed := ckptRec.Metrics()["wal_replayed_records"]
	if ckptReplayed*4 > fullReplayed {
		t.Fatalf("checkpointed restart replayed %d of %d records — not bounded", ckptReplayed, fullReplayed)
	}
	perRound := fullReplayed / int64(fin)
	if maxReplay := perRound * 3 * pruneKeep; ckptReplayed > maxReplay {
		t.Fatalf("replayed %d records, want O(PruneKeep) ≈ ≤%d (%d/round over %d rounds)",
			ckptReplayed, maxReplay, perRound, fin)
	}
	if !ckptRec.Recovered().HasCheckpoint {
		t.Fatal("checkpointed recovery found no checkpoint")
	}
	// Records behind a checkpoint are deleted with their segments at
	// checkpoint time, so recovery normally sees nothing to skip — the
	// skipping path only runs when truncation was interrupted (covered by
	// TestCheckpointCrashBeforeTruncate).

	// Bounded-disk claim: the truncated log is a fraction of the
	// append-only one.
	fullBytes, ckptBytes := dirBytes(t, fullDir), dirBytes(t, ckptDir)
	if ckptBytes*4 > fullBytes {
		t.Fatalf("checkpointed log holds %d bytes, full log %d — truncation ineffective", ckptBytes, fullBytes)
	}
	t.Logf("finalized=%d replayed full=%d ckpt=%d, disk full=%dB ckpt=%dB",
		fin, fullReplayed, ckptReplayed, fullBytes, ckptBytes)
}
