package banyan

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"banyan/internal/mempool"
	"banyan/internal/obs"
	"banyan/internal/types"
)

// Cluster-level batteries for decoupled batch dissemination: the
// application-visible transaction sequence must be unchanged by the
// transport (digest-committed batches vs inline payloads), and a
// crash-restart whose WAL holds only batch refs must refetch every
// finalized body instead of losing or re-ordering it.

// runTxSequence runs a 4-replica cluster with or without dissemination,
// submits txCount transactions from a single submitter to replica 0
// before the cluster starts, and returns the flattened commit-order
// transaction sequence as observed by replica 0.
func runTxSequence(t *testing.T, dissem bool, txCount int) []string {
	t.Helper()
	cluster, err := NewCluster(ClusterConfig{
		N:      4,
		Delta:  5 * time.Millisecond,
		Scheme: "hmac",
		Dissem: dissem,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]bool, txCount)
	for i := 0; i < txCount; i++ {
		tx := fmt.Sprintf("equiv-tx-%04d", i)
		want[tx] = true
		// One submitter identity: the sharded drain preserves per-submitter
		// FIFO, so the committed order is comparable across transports.
		if err := cluster.SubmitAs(0, 7, []byte(tx)); err != nil {
			t.Fatalf("submit %q: %v", tx, err)
		}
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	var seq []string
	seen := make(map[string]bool, txCount)
	deadline := time.After(30 * time.Second)
	for len(seen) < txCount {
		select {
		case c, ok := <-cluster.Commits():
			if !ok {
				t.Fatal("commit stream closed early")
			}
			for _, tx := range c.Transactions {
				s := string(tx)
				if !want[s] {
					t.Fatalf("committed unexpected transaction %q", s)
				}
				if seen[s] {
					t.Fatalf("transaction %q committed twice", s)
				}
				seen[s] = true
				seq = append(seq, s)
			}
		case <-deadline:
			t.Fatalf("timed out: %d/%d transactions committed (dissem=%v)",
				len(seen), txCount, dissem)
		}
	}
	cluster.Stop()
	if faults := cluster.Faults(); len(faults) > 0 {
		t.Fatalf("faults (dissem=%v): %v", dissem, faults)
	}
	for i := 0; i < cluster.N(); i++ {
		if d := cluster.Metrics(i)["transport_dropped"]; d != 0 {
			t.Errorf("the hub dropped %d messages to replica %d (dissem=%v)", d, i, dissem)
		}
	}
	if dissem {
		// The run must actually have traveled the batch plane, not an
		// inline fallback: replica 0 cut and announced batches.
		m := cluster.Metrics(0)
		if m["dissemBatchesCut"] == 0 || m["dissemAnnounced"] == 0 {
			t.Fatalf("dissemination never engaged: cut=%d announced=%d",
				m["dissemBatchesCut"], m["dissemAnnounced"])
		}
	}
	return seq
}

// TestClusterDissemSameSeedEquivalence: with a single submitter, the
// application observes the exact same transaction sequence whether
// payloads ride inline in proposals or commit as digests with bodies
// disseminated out-of-band. Dissemination changes the transport, never
// the ordering contract.
func TestClusterDissemSameSeedEquivalence(t *testing.T) {
	const txCount = 48
	inline := runTxSequence(t, false, txCount)
	dissem := runTxSequence(t, true, txCount)
	if len(inline) != len(dissem) {
		t.Fatalf("sequence lengths diverge: inline %d, dissem %d", len(inline), len(dissem))
	}
	for i := range inline {
		if inline[i] != dissem[i] {
			t.Fatalf("transaction order diverges at %d: inline %q, dissem %q",
				i, inline[i], dissem[i])
		}
	}
}

// TestClusterDissemCrashRestart: a dissemination-mode replica crashes and
// restarts from a WAL that holds no batch bodies (the batch store is
// rebuilt empty). Catch-up re-finalizes its pre-crash window with every
// body missing, so the delivery gate must refetch each one from the
// ack-quorum holders before re-delivering — nothing lost, nothing
// reordered, and no equivocation from the restarted proposer.
func TestClusterDissemCrashRestart(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{
		N:      4,
		Delta:  5 * time.Millisecond,
		Scheme: "hmac",
		Dissem: true,
		WALDir: t.TempDir(),
		Obs:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Real batch traffic, spread round-robin so every replica (the victim
	// included) cuts and announces bodies the restarted store won't have.
	submit := func(n, base int) {
		for i := 0; i < n; i++ {
			tx := make([]byte, 512)
			copy(tx, fmt.Sprintf("crash-tx-%06d", base+i))
			if !cluster.Submit(tx) {
				t.Fatalf("submit %d rejected", base+i)
			}
		}
	}
	submit(2000, 0)
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	const victim = 1
	waitForRound(t, cluster, 8, 20*time.Second)
	if err := cluster.CrashReplica(victim); err != nil {
		t.Fatal(err)
	}
	waitForRound(t, cluster, 12, 20*time.Second)
	// Submitted to the live replicas while the victim is down: their
	// bodies are cut and announced exactly once, into a slot whose
	// backlog the restart discards. A block referencing one of them can
	// only be delivered by the victim through fetch-on-miss.
	for i := 0; i < 600; i++ {
		tx := make([]byte, 512)
		copy(tx, fmt.Sprintf("crash-tx-%06d", 2000+i))
		live := []int{0, 2, 3}[i%3]
		if err := cluster.SubmitAs(live, uint64(10+live), tx); err != nil {
			t.Fatalf("submit down-window %d: %v", i, err)
		}
	}
	// From here on, every commit drained from the observer is scanned for
	// a down-window transaction (they can land as early as round ~13, so
	// the scan must cover the pre-restart drain too). The run ends only
	// once the observer has committed a down-window body and then gone 10
	// more blocks and round 40: the victim's chain window below may trail
	// the observer by at most 8 blocks, so it necessarily covers that
	// commit — which the victim can only have delivered by fetching the
	// body. This keeps the fetch assertion meaningful even under heavy
	// CPU load, where rounds outpace batch referencing and a fixed round
	// target could stop the run before any down-window batch commits.
	downSeen := false
	blocksAfter := 0
	var lastRound uint64
	deadline := time.After(45 * time.Second)
	drainUntil := func(done func() bool) {
		t.Helper()
		for !done() {
			select {
			case c, ok := <-cluster.Commits():
				if !ok {
					t.Fatal("commit stream closed early")
				}
				lastRound = c.Round
				if downSeen {
					blocksAfter++
					continue
				}
				for _, tx := range c.Transactions {
					if strings.HasPrefix(string(tx), "crash-tx-002") {
						downSeen = true
						break
					}
				}
			case <-deadline:
				t.Fatalf("timed out: down-window body committed=%v, %d blocks past it, round %d",
					downSeen, blocksAfter, lastRound)
			}
		}
	}
	drainUntil(func() bool { return lastRound >= 16 })
	if err := cluster.RestartReplica(victim); err != nil {
		t.Fatal(err)
	}
	submit(1000, 3000) // keep bodies flowing across the restarted life
	drainUntil(func() bool { return downSeen && blocksAfter >= 10 && lastRound >= 40 })
	cluster.Stop()

	if faults := cluster.Faults(); len(faults) > 0 {
		t.Fatalf("safety faults: %v", faults)
	}
	ref := cluster.FinalizedChain(0)
	got := cluster.FinalizedChain(victim)
	if len(ref) == 0 || len(got) == 0 {
		t.Fatalf("empty chains: observer %d, victim %d", len(ref), len(got))
	}
	// The victim's delivered chain must be a contiguous window of the
	// observer's — a checkpointed restart may start it past genesis, but
	// within the window nothing may be missing or transposed.
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
			t.Fatalf("chain divergence at %d: observer %s, victim %s", i, ref[start+i], got[i])
		}
	}
	if len(got) < len(ref)-start-8 {
		t.Fatalf("victim delivered %d blocks from window start %d, observer %d — lost finalized batches",
			len(got), start, len(ref))
	}
	m := cluster.Metrics(victim)
	if m["wal_replayed_records"] == 0 {
		t.Error("restarted replica replayed no WAL records")
	}
	// The store is rebuilt empty and the down-window bodies were announced
	// into a dead slot, so rejoining MUST have gone through fetch-on-miss.
	if m["dissemFetches"] == 0 {
		t.Error("restarted replica refetched no batch bodies")
	}
	if cluster.Observer(victim).Registry.Histograms()[obs.HistDissemFetch].Count == 0 {
		t.Errorf("victim's %s histogram recorded no samples", obs.HistDissemFetch)
	}
	if q := m["dissemDelivQueued"]; q > 4 {
		t.Errorf("victim still has %d gated deliveries queued at shutdown", q)
	}
	t.Logf("victim: %d blocks (observer %d, window start %d), %d replayed records, %d fetches, %d stale drops",
		len(got), len(ref), start, m["wal_replayed_records"], m["dissemFetches"], m["dissemDelivDropped"])
}

// TestClusterStalledReaderCommitsWhole: the application stops reading
// Commits until the backlog passes the stream's buffer, while replica 0
// keeps finalizing and compacting the batch bodies behind it. Every
// Commit it then reads carries all of its transactions — the commit
// brought its bodies out of the engine, so compaction cannot empty it —
// and every finalized block is accounted for: read, or dropped and
// counted in commits_dropped. A commit may fall short of its
// PayloadBytes only by refs delivery skipped as repeats of earlier
// finalized ones (a leader missing a block of its parent chain cannot
// tell which batches that block took); those are counted in
// dissemSkippedBytes, and an idle run has none.
func TestClusterStalledReaderCommitsWhole(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{
		N:         4,
		Delta:     5 * time.Millisecond,
		Scheme:    "hmac",
		Dissem:    true,
		PruneKeep: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	stopLoad := make(chan struct{})
	loadDone := make(chan struct{})
	endLoad := sync.OnceFunc(func() { close(stopLoad); <-loadDone })
	defer endLoad()
	go func() {
		defer close(loadDone)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			case <-tick.C:
				tx := make([]byte, 512)
				copy(tx, fmt.Sprintf("stall-tx-%07d", i))
				cluster.Submit(tx)
			}
		}
	}()

	// Stall until the buffer is full (well under a second on an idle
	// machine), then long enough past it for the engine to compact the
	// bodies of the blocks finalized meanwhile.
	deadline := time.Now().Add(60 * time.Second)
	for len(cluster.Commits()) < commitBuffer {
		if time.Now().After(deadline) {
			t.Fatalf("the backlog reached only %d of %d commits", len(cluster.Commits()), commitBuffer)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(time.Second)

	var read, carrying, short int
	var shortBytes int64
	check := func(c Commit) {
		read++
		size := 0
		for _, tx := range c.Transactions {
			size += 4 + len(tx)
		}
		if c.PayloadBytes > 0 {
			carrying++
		}
		if size < c.PayloadBytes {
			short++
			shortBytes += int64(c.PayloadBytes - size)
		}
	}
	for resumed := time.Now(); time.Since(resumed) < 500*time.Millisecond; {
		select {
		case c := <-cluster.Commits():
			check(c)
		case <-time.After(5 * time.Second):
			t.Fatal("no commit for 5 s after the reader resumed")
		}
	}
	endLoad()
	cluster.Stop()
	for c := range cluster.Commits() {
		check(c)
	}

	if faults := cluster.Faults(); len(faults) > 0 {
		t.Fatalf("faults: %v", faults)
	}
	m := cluster.Metrics(0)
	dropped := m["commits_dropped"]
	if dropped == 0 {
		t.Error("the stalled reader dropped no commits: the backlog never passed the buffer")
	}
	if int64(read)+dropped != m["blocks_commit"] {
		t.Errorf("%d commits read + %d dropped, but replica 0 delivered %d blocks", read, dropped, m["blocks_commit"])
	}
	if carrying == 0 {
		t.Error("no commit carried a payload")
	}
	if skipped := m["dissemSkippedBytes"]; shortBytes > skipped {
		t.Errorf("%d commits miss %d transaction bytes, but delivery skipped only %d", short, shortBytes, skipped)
	}
	t.Logf("%d commits read (%d with a payload, %d short), %d dropped", read, carrying, short, dropped)
}

// TestDecodeRefsThenInlineTail: an honest replica proposes no inline
// tail beside its batch refs, but the digest-list wire form carries one
// and a peer may send it (an older version, or a Byzantine proposer).
// decodeTransactions resolves such a committed payload to the bodies
// delivery resolved for its refs, in ref order, then the tail.
func TestDecodeRefsThenInlineTail(t *testing.T) {
	cut := func(txs ...string) types.Payload {
		pool := mempool.NewPool(1<<20, 1<<20)
		for _, tx := range txs {
			if err := pool.SubmitErr([]byte(tx)); err != nil {
				t.Fatal(err)
			}
		}
		return pool.CutBatch(1 << 20)
	}
	first, second, tail := cut("a1", "a2"), cut("b1"), cut("t1", "t2")
	bodies := []*types.Payload{&first, &second}
	var refs []types.BatchRef
	for _, body := range bodies {
		refs = append(refs, types.BatchRef{Digest: body.Digest(), Size: uint32(body.Size())})
	}
	var got []string
	for _, tx := range decodeTransactions(types.BatchPayload(refs, tail.Materialize()), bodies) {
		got = append(got, string(tx))
	}
	if want := []string{"a1", "a2", "b1", "t1", "t2"}; !slices.Equal(got, want) {
		t.Fatalf("decoded %q, want %q", got, want)
	}
}

// TestDecodeTransactionsSharedTxs: on an in-process hub every replica
// holds the same batch bodies, each the list of transactions the origin's
// pool claimed. decodeTransactions appends the second body's transactions
// to the first body's decoded list, so that list must come back clipped:
// two replicas decoding at once would otherwise both write into the
// shared list's spare capacity (a race under -race, and a corrupted list
// without it).
func TestDecodeTransactionsSharedTxs(t *testing.T) {
	pool := mempool.NewPool(1<<20, 1<<20)
	cut := func(txs ...string) types.Payload {
		for _, tx := range txs {
			if err := pool.SubmitErr([]byte(tx)); err != nil {
				t.Fatal(err)
			}
		}
		return pool.CutBatch(1 << 20)
	}
	first, second := cut("a1", "a2", "a3", "a4", "a5"), cut("b1", "b2")
	shared := first.Txs()
	if cap(shared)-len(shared) < len(second.Txs()) {
		t.Fatalf("fixture: first body's list (len %d, cap %d) has no room for the second's %d",
			len(shared), cap(shared), len(second.Txs()))
	}
	bodies := []*types.Payload{&first, &second}
	var refs []types.BatchRef
	for _, body := range bodies {
		refs = append(refs, types.BatchRef{Digest: body.Digest(), Size: uint32(body.Size())})
	}
	want := []string{"a1", "a2", "a3", "a4", "a5", "b1", "b2"}
	var wg sync.WaitGroup
	got := make([][]string, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tx := range decodeTransactions(types.BatchPayload(refs, nil), bodies) {
				got[g] = append(got[g], string(tx))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if !slices.Equal(got[g], want) {
			t.Fatalf("decoder %d read %q, want %q", g, got[g], want)
		}
	}
	for i, tx := range shared[len(shared):cap(shared)] {
		if tx != nil {
			t.Fatalf("decoding wrote %q into the shared list's spare slot %d", tx, i)
		}
	}
}
