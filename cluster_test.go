package banyan

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestClusterCommitsTransactions runs a real-time 4-replica Banyan cluster
// in-process and checks submitted transactions come out finalized, in
// order, mostly on the fast path.
func TestClusterCommitsTransactions(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{
		N:     4,
		Delta: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	const txCount = 40
	want := make(map[string]bool, txCount)
	for i := 0; i < txCount; i++ {
		tx := fmt.Sprintf("tx-%03d", i)
		want[tx] = true
		if !cluster.Submit([]byte(tx)) {
			t.Fatalf("submit %q rejected", tx)
		}
	}

	deadline := time.After(20 * time.Second)
	got := make(map[string]bool, txCount)
	fast := 0
	for len(got) < txCount {
		select {
		case c, ok := <-cluster.Commits():
			if !ok {
				t.Fatal("commit stream closed early")
			}
			if c.Path == PathFast {
				fast++
			}
			for _, tx := range c.Transactions {
				s := string(tx)
				if !want[s] {
					t.Fatalf("committed unexpected transaction %q", s)
				}
				if got[s] {
					t.Fatalf("transaction %q committed twice", s)
				}
				got[s] = true
			}
		case <-deadline:
			t.Fatalf("timed out: %d/%d transactions committed", len(got), txCount)
		}
	}
	if fast == 0 {
		t.Error("no fast-path commits observed")
	}
	if faults := cluster.Faults(); len(faults) > 0 {
		t.Fatalf("faults: %v", faults)
	}
}

// TestClusterVerifiesOnlyWhatItReads: a replica verifies a signature only
// when its engine reads one, after dropping settled rounds, so an n=4
// ed25519 cluster with 5 ms links verifies about 11 signatures per round
// over all replicas, as the simulation of the same protocol does. A stage
// that verified inbound messages ahead of the engine would also verify
// signatures the engine then drops as settled: about 18 per round.
func TestClusterVerifiesOnlyWhatItReads(t *testing.T) {
	const rounds = 150
	cluster, err := NewCluster(ClusterConfig{N: 4, LinkDelay: 5 * time.Millisecond, Scheme: "ed25519"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	deadline := time.After(60 * time.Second)
	for reached := false; !reached; {
		select {
		case c := <-cluster.Commits():
			reached = c.Round >= rounds
		case <-deadline:
			t.Fatalf("round %d not finalized in time", rounds)
		}
	}
	cluster.Stop()
	var verified int64
	for i := 0; i < cluster.N(); i++ {
		verified += cluster.Metrics(i)["sigs_verified"]
	}
	perRound := float64(verified) / float64(cluster.Metrics(0)["rounds"])
	t.Logf("%d signatures verified over %d rounds: %.2f per round", verified, cluster.Metrics(0)["rounds"], perRound)
	if perRound > 12 {
		t.Fatalf("%.2f signatures verified per round over all replicas, want <= 12", perRound)
	}
	if faults := cluster.Faults(); len(faults) > 0 {
		t.Fatalf("faults: %v", faults)
	}
}

// TestClusterMetricsPageReportsVerification: a replica's /metrics page
// carries the verification pipeline's count of signatures verified, and
// after the run the engine's counters show the fast path sending one VoteMsg per replica per round, with the
// finalization vote suppressed, and late traffic dropped as settled.
func TestClusterMetricsPageReportsVerification(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{N: 4, Delta: 5 * time.Millisecond, Obs: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	for i := 0; i < 5; i++ {
		if !cluster.Submit([]byte{byte(i)}) {
			t.Fatal("submit rejected")
		}
		select {
		case <-cluster.Commits():
		case <-time.After(20 * time.Second):
			t.Fatal("no commit")
		}
	}
	rec := httptest.NewRecorder()
	cluster.Observer(0).Handler(0).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	page := rec.Body.String()
	if !strings.Contains(page, "# TYPE banyan_sigs_verified gauge") {
		t.Error("/metrics lacks banyan_sigs_verified")
	}
	if strings.Contains(page, "banyan_sigs_verified 0\n") {
		t.Error("/metrics reports no signature verified after a committed round")
	}
	cluster.Stop()
	m := cluster.Metrics(0)
	if m["final_votes_suppressed"] == 0 || m["settled_dropped"] == 0 {
		t.Errorf("final_votes_suppressed=%d settled_dropped=%d after %d fast-path rounds",
			m["final_votes_suppressed"], m["settled_dropped"], m["final_fast"])
	}
	if 2*m["votes_sent"] > 3*m["rounds"] {
		t.Errorf("votes_sent=%d over %d rounds: finalization votes still sent on the fast path", m["votes_sent"], m["rounds"])
	}
}
