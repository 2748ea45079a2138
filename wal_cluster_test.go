package banyan

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"banyan/internal/obs"
)

// waitForRound consumes replica-0 commits until one at or past round r
// (or the deadline), returning how many blocks were seen.
func waitForRound(t *testing.T, cluster *Cluster, r uint64, deadline time.Duration) int {
	t.Helper()
	timeout := time.After(deadline)
	blocks := 0
	for {
		select {
		case c, ok := <-cluster.Commits():
			if !ok {
				t.Fatal("commit stream closed early")
			}
			blocks++
			if c.Round >= r {
				return blocks
			}
		case <-timeout:
			t.Fatalf("timed out waiting for round %d commits", r)
		}
	}
}

// TestClusterCrashRestartWAL kills one replica of a live in-process
// cluster mid-run (abandoning its WAL's unsynced group, as a real crash
// would), restarts it from the log, and checks it rejoins: no safety
// faults anywhere, and a finalized chain byte-identical to a replica
// that never crashed. The crash comes before the first checkpoint, so
// the restarted replica takes its whole chain back from its peers.
func TestClusterCrashRestartWAL(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{
		N:      4,
		Delta:  5 * time.Millisecond,
		Scheme: "hmac", // cheap crypto: the test is about durability
		WALDir: t.TempDir(),
		// Stage histograms ride along: an observer survives the restart,
		// so the victim's records span both lives.
		Obs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	const victim = 1
	waitForRound(t, cluster, 8, 20*time.Second)
	if err := cluster.CrashReplica(victim); err != nil {
		t.Fatal(err)
	}
	if err := cluster.CrashReplica(victim); err == nil {
		t.Fatal("double crash not rejected")
	}
	// The cluster keeps finalizing with n-1 = 3f+... replicas while the
	// victim is down.
	waitForRound(t, cluster, 16, 20*time.Second)
	if err := cluster.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	// Give the restarted replica time to replay and catch up, then stop.
	waitForRound(t, cluster, 40, 30*time.Second)
	cluster.Stop()

	if faults := cluster.Faults(); len(faults) > 0 {
		t.Fatalf("safety faults: %v", faults)
	}
	ref := cluster.FinalizedChain(0)
	got := cluster.FinalizedChain(victim)
	if len(ref) == 0 || len(got) == 0 {
		t.Fatalf("empty chains: observer %d, victim %d", len(ref), len(got))
	}
	for i := 0; i < len(ref) && i < len(got); i++ {
		if ref[i] != got[i] {
			t.Fatalf("chain divergence at %d: observer %s, restarted %s", i, ref[i], got[i])
		}
	}
	// The restarted replica must have caught up close to the tip, which
	// requires live sync: the WAL restores its votes, not its chain.
	if len(got) < len(ref)-8 {
		t.Fatalf("restarted replica holds %d blocks, observer %d", len(got), len(ref))
	}
	m := cluster.Metrics(victim)
	if m["wal_replayed_records"] == 0 {
		t.Error("restarted replica replayed no WAL records")
	}
	stages := cluster.Observer(victim).Registry.Histograms()
	for _, name := range []string{obs.HistCommitLatency, obs.HistVerifyTime, obs.HistWALFlush} {
		if stages[name].Count == 0 {
			t.Errorf("victim's %s histogram recorded no samples", name)
		}
	}
	t.Logf("victim: %d blocks (observer %d), %d replayed records, %d appends / %d syncs",
		len(got), len(ref), m["wal_replayed_records"], m["wal_appends"], m["wal_syncs"])
}

// TestClusterCheckpointRestart is the acceptance scenario for WAL
// checkpointing: a cluster that has finalized 10× the engine's pruning
// window crashes a replica and restarts it. The restart must replay only
// O(PruneKeep) records (not all of history), the on-disk log must stay
// bounded by the checkpoint window, and the restored window must be
// byte-identical to the corresponding suffix of a replica that never
// crashed.
func TestClusterCheckpointRestart(t *testing.T) {
	const ckptRounds = 16 // the engine's default PruneKeep, the WAL's checkpoint cadence
	walDir := t.TempDir()
	cluster, err := NewCluster(ClusterConfig{
		N:      4,
		Delta:  5 * time.Millisecond,
		Scheme: "hmac",
		WALDir: walDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	const victim = 2
	// 10× the checkpoint window before the crash.
	waitForRound(t, cluster, 10*ckptRounds, 60*time.Second)
	if err := cluster.CrashReplica(victim); err != nil {
		t.Fatal(err)
	}
	waitForRound(t, cluster, 10*ckptRounds+8, 20*time.Second)
	if err := cluster.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	waitForRound(t, cluster, 10*ckptRounds+40, 30*time.Second)
	cluster.Stop()

	if faults := cluster.Faults(); len(faults) > 0 {
		t.Fatalf("safety faults: %v", faults)
	}
	m := cluster.Metrics(victim)
	if m["wal_checkpoints"] == 0 {
		t.Error("victim wrote no checkpoints before the crash")
	}
	if m["wal_replayed_records"] == 0 {
		t.Error("victim replayed nothing")
	}
	// O(PruneKeep) replay: the victim journaled >160 rounds of history,
	// but replay must cover only the newest checkpoint plus the tail
	// since it — a few own records per round of at most two windows,
	// against the ~4 records/round of all history a full replay would
	// mean.
	if replayed := m["wal_replayed_records"]; replayed > 10*ckptRounds {
		t.Errorf("replayed %d records — O(uptime), not O(PruneKeep)", replayed)
	}
	// Disk stays bounded by the checkpoint window.
	var walBytes int64
	entries, err := os.ReadDir(filepath.Join(walDir, fmt.Sprintf("replica-%d", victim)))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			walBytes += info.Size()
		}
	}
	if walBytes > 1<<20 {
		t.Errorf("victim WAL holds %d bytes — truncation ineffective", walBytes)
	}
	// The victim's restored window must be a byte-identical suffix of the
	// observer's chain (the window's first block can start anywhere at or
	// after the checkpoint floor).
	ref, got := cluster.FinalizedChain(0), cluster.FinalizedChain(victim)
	if len(ref) == 0 || len(got) == 0 {
		t.Fatalf("empty chains: observer %d, victim %d", len(ref), len(got))
	}
	start := -1
	for i, id := range ref {
		if id == got[0] {
			start = i
			break
		}
	}
	if start < 0 {
		t.Fatalf("victim window start %s not on observer chain", got[0])
	}
	for i := 0; i < len(got) && start+i < len(ref); i++ {
		if ref[start+i] != got[i] {
			t.Fatalf("window divergence at %d: observer %s, victim %s", i, ref[start+i], got[i])
		}
	}
	if len(got) < 2*ckptRounds {
		t.Errorf("victim window holds only %d blocks", len(got))
	}
	t.Logf("victim: %d checkpoints, %d replayed records, window %d blocks (observer %d), wal %dB",
		m["wal_checkpoints"], m["wal_replayed_records"], len(got), len(ref), walBytes)
}

// TestClusterRestartRequiresWAL: crash-restart without a WALDir must be
// rejected rather than silently restarting with amnesia.
func TestClusterRestartRequiresWAL(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{N: 4, Delta: 5 * time.Millisecond, Scheme: "hmac"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	if err := cluster.CrashReplica(2); err != nil {
		t.Fatal(err)
	}
	if err := cluster.RestartReplica(2); err == nil {
		t.Fatal("RestartReplica without WALDir must fail")
	}
}

// TestNewClusterReleasesLogsOnError: when a later replica cannot be
// built, NewCluster closes the logs of the replicas it already built, so
// no segment file stays open and no group-commit goroutine outlives the
// error.
func TestNewClusterReleasesLogsOnError(t *testing.T) {
	dir := t.TempDir()
	// A regular file where replica 2's log directory belongs.
	if err := os.WriteFile(filepath.Join(dir, "replica-2"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := syncLoops()
	if _, err := NewCluster(ClusterConfig{N: 4, Delta: 5 * time.Millisecond, Scheme: "hmac", WALDir: dir}); err == nil {
		t.Fatal("NewCluster built a replica whose log directory is a file")
	}
	if n := syncLoops(); n != before {
		t.Fatalf("%d WAL group-commit goroutines after the failed NewCluster, %d before", n, before)
	}
}

// syncLoops counts the running WAL group-commit goroutines.
func syncLoops() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "wal.(*Log).syncLoop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}
