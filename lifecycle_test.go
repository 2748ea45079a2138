package banyan

import (
	"testing"
	"time"
)

// within fails the test if f has not returned after 5 s, so a hang fails
// here instead of timing out the package.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return within 5 s", what)
	}
}

// requireClosed drains commits and fails the test unless the channel is
// closed within 5 s.
func requireClosed(t *testing.T, commits <-chan Commit) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-commits:
			if !ok {
				return
			}
		case <-timeout:
			t.Fatal("Commits not closed after Stop")
		}
	}
}

// loneReplica builds replica 0 of a 4-replica deployment on a loopback
// port, with no peers: enough to drive its lifecycle.
func loneReplica(t *testing.T) *Replica {
	t.Helper()
	r, err := NewReplica(ReplicaConfig{ID: 0, N: 4, ListenAddr: "127.0.0.1:0", Scheme: "hmac"})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestClusterStopBeforeStart: a cluster stopped before it started stops
// at once, closes Commits and refuses a later Start.
func TestClusterStopBeforeStart(t *testing.T) {
	c, err := NewCluster(ClusterConfig{N: 4, Scheme: "hmac"})
	if err != nil {
		t.Fatal(err)
	}
	within(t, "Cluster.Stop before Start", c.Stop)
	requireClosed(t, c.Commits())
	if err := c.Start(); err == nil {
		t.Fatal("Start after Stop accepted")
	}
}

// TestReplicaStopBeforeStart: a replica stopped before it started stops
// at once, closes Commits and refuses a later Start.
func TestReplicaStopBeforeStart(t *testing.T) {
	r := loneReplica(t)
	within(t, "Replica.Stop before Start", r.Stop)
	requireClosed(t, r.Commits())
	if err := r.Start(); err == nil {
		t.Fatal("Start after Stop accepted")
	}
}

// TestReplicaStartTwice: a second Start fails without starting anything,
// so Stop still shuts the replica down once and closes Commits.
func TestReplicaStartTwice(t *testing.T) {
	r := loneReplica(t)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
	within(t, "Replica.Stop after a second Start", r.Stop)
	requireClosed(t, r.Commits())
}
