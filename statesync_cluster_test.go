package banyan

import (
	"testing"
	"time"
)

// TestClusterFreshJoinAndDiskLossRestart drives the two provisioning
// paths that depend on peer snapshot state sync, against a deep-pruned
// cluster where block-by-block catch-up from round 1 is impossible:
//
//  1. a replica held out of Start joins mid-run with no history
//     (JoinReplica), and
//  2. a crashed replica loses its disk and restarts with an empty WAL
//     (RestartReplicaFresh).
//
// Both must fetch a quorum-certified snapshot, rejoin the live rounds,
// and end holding a byte-identical suffix of the observer's chain.
func TestClusterFreshJoinAndDiskLossRestart(t *testing.T) {
	const (
		joiner = 4
		victim = 1
	)
	cluster, err := NewCluster(ClusterConfig{
		N:      5,
		Delta:  5 * time.Millisecond,
		Scheme: "hmac",
		WALDir: t.TempDir(),
		// Tight deep-pruned windows: every replica holds only its last 8
		// finalized rounds, so a joiner 30+ rounds behind cannot be served
		// block-by-block and must take the snapshot path.
		// The WAL checkpoints every PruneKeep rounds too.
		DeepPrune: true,
		PruneKeep: 8,
		HoldStart: []int{joiner},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	if err := cluster.JoinReplica(0); err == nil {
		t.Fatal("joining a replica that was never held must be rejected")
	}

	// Phase 1: fresh join, 30+ rounds behind the window.
	waitForRound(t, cluster, 30, 30*time.Second)
	if err := cluster.JoinReplica(joiner); err != nil {
		t.Fatal(err)
	}
	waitForRound(t, cluster, 70, 30*time.Second)

	// Phase 2: disk loss. (Sequenced after the join completes — with
	// quorum n-f = 4 of 5, only one replica may be absent at a time.)
	if err := cluster.CrashReplica(victim); err != nil {
		t.Fatal(err)
	}
	waitForRound(t, cluster, 90, 30*time.Second)
	if err := cluster.RestartReplicaFresh(victim); err != nil {
		t.Fatal(err)
	}
	waitForRound(t, cluster, 150, 30*time.Second)
	cluster.Stop()

	if faults := cluster.Faults(); len(faults) > 0 {
		t.Fatalf("safety faults: %v", faults)
	}
	ref := cluster.FinalizedChain(0)
	if len(ref) == 0 {
		t.Fatal("observer finalized nothing")
	}
	for name, id := range map[string]int{"joiner": joiner, "victim": victim} {
		got := cluster.FinalizedChain(id)
		if len(got) == 0 {
			t.Fatalf("%s finalized nothing", name)
		}
		// The windowed chain must be a byte-identical suffix of the
		// observer's (it starts at the adopted snapshot floor, not 1).
		start := -1
		for i, rid := range ref {
			if rid == got[0] {
				start = i
				break
			}
		}
		if start < 0 {
			t.Fatalf("%s window start %s not on observer chain", name, got[0])
		}
		for i := 0; i < len(got) && start+i < len(ref); i++ {
			if ref[start+i] != got[i] {
				t.Fatalf("%s diverges at window offset %d", name, i)
			}
		}
		if len(got) < 40 {
			t.Errorf("%s holds only %d finalized blocks — it did not keep up after syncing", name, len(got))
		}
		m := cluster.Metrics(id)
		if m["statesync_fetches"] == 0 {
			t.Errorf("%s caught up without a snapshot fetch", name)
		}
		t.Logf("%s: %d blocks (observer %d), fetches %d, rejected %d",
			name, len(got), len(ref), m["statesync_fetches"], m["statesync_rejected"])
	}
	if m := cluster.Metrics(victim); m["wal_replayed_records"] != 0 {
		t.Errorf("victim replayed %d records from a wiped disk", m["wal_replayed_records"])
	}
}
