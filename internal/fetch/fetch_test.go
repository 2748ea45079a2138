package fetch

import (
	"testing"
	"time"

	"banyan/internal/types"
)

func TestRingSkipsSelf(t *testing.T) {
	r := newRing(2, 4)
	seen := map[types.ReplicaID]int{}
	for i := 0; i < 9; i++ {
		p := r.Current()
		if p == 2 {
			t.Fatal("ring returned self")
		}
		seen[p]++
		r.Advance()
	}
	// 9 draws over 3 peers: each peer exactly 3 times.
	for _, id := range []types.ReplicaID{0, 1, 3} {
		if seen[id] != 3 {
			t.Fatalf("peer %d drawn %d times, want 3", id, seen[id])
		}
	}
}

// TestFetcherDedupsByHeight: snapshot targets are round keys with no
// holder. A round already outstanding is a duplicate; a higher round
// supersedes a lower one when the owner drops the lower and adds the
// higher — one snapshot at the highest height covers everything below it.
func TestFetcherDedupsByHeight(t *testing.T) {
	f := NewFetcher[types.Round](0, 4, time.Second)
	if !f.Add(10, types.NoReplica) {
		t.Fatal("first target rejected")
	}
	if f.Add(10, types.NoReplica) {
		t.Fatal("duplicate target accepted")
	}
	f.Drop(func(r types.Round) bool { return r < 12 })
	if !f.Add(12, types.NoReplica) {
		t.Fatal("higher target rejected")
	}
	now := time.Unix(0, 0)
	r, _, ok := f.Begin(now)
	if !ok || r != 12 {
		t.Fatalf("fetching round %d, want 12 (highest supersedes)", r)
	}
	if _, _, ok := f.Begin(now); ok {
		t.Fatal("superseded target still queued")
	}
	if f.Add(12, types.NoReplica) {
		t.Fatal("target equal to the in-flight one accepted")
	}
}

func TestFetcherTimeoutRotation(t *testing.T) {
	f := NewFetcher[types.Round](1, 4, time.Second)
	f.Add(7, types.NoReplica)
	now := time.Unix(100, 0)
	_, first, _ := f.Begin(now)
	if first == 1 {
		t.Fatal("fetching from self")
	}
	if _, ok := f.Expired(now.Add(999 * time.Millisecond)); ok {
		t.Fatal("expired before deadline")
	}
	if k, ok := f.Expired(now.Add(time.Second)); !ok || k != 7 {
		t.Fatal("not expired at deadline")
	}
	second := f.Retry(7, now.Add(time.Second))
	if second == first || second == 1 {
		t.Fatalf("retry peer %d after %d", second, first)
	}
	if _, ok := f.Expired(now.Add(1500 * time.Millisecond)); ok {
		t.Fatal("deadline not re-armed on retry")
	}
	// Full rotation returns to the first peer.
	p := second
	for i := 0; i < 2; i++ {
		p = f.Retry(7, now)
	}
	if p != first {
		t.Fatalf("rotation did not wrap: got %d, want %d", p, first)
	}
}

func TestFetcherDone(t *testing.T) {
	f := NewFetcher[types.Round](0, 4, time.Second)
	f.Add(9, types.NoReplica)
	now := time.Unix(0, 0)
	f.Begin(now)

	f.Done(9)
	if f.Fetching() || !f.Idle() {
		t.Fatal("state left behind after Done")
	}
	if _, ok := f.Expired(now.Add(time.Hour)); ok || !f.Deadline().IsZero() {
		t.Fatal("a done key still has a deadline")
	}
	// A done key can be fetched again.
	if !f.Add(9, types.NoReplica) {
		t.Fatal("done key cannot be re-added")
	}
	if r, _, ok := f.Begin(now); !ok || r != 9 {
		t.Fatal("re-added key not fetchable")
	}
	f.Done(9)
	if _, _, ok := f.Begin(now); ok {
		t.Fatal("Begin succeeded with empty queue")
	}
}

// TestFetcherStaleDoneKeepsFetch: suffix sync finalizing up to round 12
// does not cover a round-30 snapshot fetch.
func TestFetcherStaleDoneKeepsFetch(t *testing.T) {
	f := NewFetcher[types.Round](0, 4, time.Second)
	f.Add(30, types.NoReplica)
	f.Begin(time.Unix(0, 0))
	f.Drop(func(r types.Round) bool { return r <= 12 })
	if !f.Fetching() {
		t.Fatal("in-flight fetch cleared by lower Drop")
	}
	f.Drop(func(r types.Round) bool { return r <= 30 })
	if !f.Idle() {
		t.Fatal("Drop at the target left it in flight")
	}
}

func TestFetcherDedupOriginFirstRotation(t *testing.T) {
	f := NewFetcher[[32]byte](0, 4, 100*time.Millisecond)
	var d1, d2 [32]byte
	d1[0], d2[0] = 1, 2
	if !f.Add(d1, 2) || f.Add(d1, 2) {
		t.Fatal("dedup broken")
	}
	now := time.Unix(0, 0)
	k, peer, ok := f.Begin(now)
	if !ok || k != d1 || peer != 2 {
		t.Fatalf("first attempt must go to the origin: peer %d", peer)
	}
	if _, ok := f.Expired(now.Add(50 * time.Millisecond)); ok {
		t.Fatal("expired early")
	}
	if _, ok := f.Expired(now.Add(100 * time.Millisecond)); !ok {
		t.Fatal("not expired at deadline")
	}
	p1 := f.Retry(d1, now.Add(100*time.Millisecond))
	if p1 == 2 || p1 == 0 {
		t.Fatalf("retry went back to the timed-out origin or self: %d", p1)
	}
	seen := map[types.ReplicaID]bool{p1: true}
	for i := 0; i < 2; i++ {
		seen[f.Retry(d1, now)] = true
	}
	if len(seen) != 3 || seen[0] {
		t.Fatalf("rotation did not cover the peers: %v", seen)
	}

	f.Done(d1)
	if f.Fetching() {
		t.Fatal("Done did not clear the in-flight fetch")
	}
	f.Add(d2, 3)
	if !f.Add(d1, 2) {
		t.Fatal("completed digest cannot be re-added")
	}
	// A late announce satisfies a queued (not in-flight) digest.
	f.Done(d1)
	if k, _, ok := f.Begin(now); !ok || k != d2 {
		t.Fatalf("queue order broken: %v", k)
	}
	f.Done(d2)
	if f.Fetching() || !f.Idle() {
		t.Fatal("Done did not drain the fetcher")
	}
	if _, _, ok := f.Begin(now); ok {
		t.Fatal("empty fetcher began a fetch")
	}
}

// TestFetcherHoldersBeforeRing checks the key-generic holder list the
// block-body pull relies on: every peer a key was heard of from gets its
// turn, in the order heard, before the ring is walked; a holder learned
// while the key is queued or in flight joins the list; self and suspect
// holders are skipped.
func TestFetcherHoldersBeforeRing(t *testing.T) {
	type key struct {
		round types.Round
		id    types.BlockID
	}
	f := NewFetcher[key](0, 7, 100*time.Millisecond)
	k := key{round: 5, id: types.BlockID{9}}
	if !f.Add(k, 4) {
		t.Fatal("new key not queued")
	}
	if f.Add(k, 6) || f.Add(k, 6) || f.Add(k, 0) {
		t.Fatal("recording a holder must not grow the queue")
	}
	now := time.Unix(0, 0)
	if _, p, ok := f.Begin(now); !ok || p != 4 || f.Sent(k) != 1 {
		t.Fatalf("first request must go to the peer first heard from: peer %d", p)
	}
	f.Add(k, 2) // learned while in flight
	if p := f.Retry(k, now); p != 6 {
		t.Fatalf("second request must go to the next holder, got %d", p)
	}
	if p := f.Retry(k, now); p != 2 {
		t.Fatalf("self must be skipped and the late holder asked, got %d", p)
	}
	// Holders exhausted: the ring (1, 2, ... from self+1) takes over and
	// never re-asks the peer that just timed out.
	if p := f.Retry(k, now); p != 1 {
		t.Fatalf("ring must take over after the holders, got %d", p)
	}
	if p := f.Retry(k, now); p == 1 || p == 0 {
		t.Fatalf("ring re-asked the silent peer or self: %d", p)
	}
	if f.Sent(k) != 5 {
		t.Fatalf("Sent = %d, want 5", f.Sent(k))
	}
	if fetches, retries := f.Counts(); fetches != 1 || retries != 4 {
		t.Fatalf("Counts = %d, %d", fetches, retries)
	}
	f.Done(k)

	// Peer 4 timed out above: while suspect it loses its holder turn.
	k2 := key{round: 6}
	f.Add(k2, 4)
	if _, p, ok := f.Begin(now); !ok || p == 4 {
		t.Fatalf("suspect holder was preferred: peer %d", p)
	}
}

func digest(i int) [32]byte {
	var d [32]byte
	d[0], d[1] = byte(i), byte(i>>8)
	return d
}

// TestFetcherWindowFillsAndRefills: Begin admits keys until Window are in
// flight and then refuses; a Done frees exactly one slot for the oldest
// queued key.
func TestFetcherWindowFillsAndRefills(t *testing.T) {
	f := NewFetcher[[32]byte](0, 4, time.Second)
	for i := 0; i < Window+3; i++ {
		f.Add(digest(i), 1)
	}
	now := time.Unix(0, 0)
	began := 0
	for {
		if _, _, ok := f.Begin(now); !ok {
			break
		}
		began++
	}
	if began != Window {
		t.Fatalf("%d keys in flight, want the window of %d", began, Window)
	}
	f.Done(digest(3))
	k, _, ok := f.Begin(now)
	if !ok || k != digest(Window) {
		t.Fatalf("the freed slot went to %v, want the oldest queued key", k)
	}
	if _, _, ok := f.Begin(now); ok {
		t.Fatal("one Done freed more than one slot")
	}
	// Done on a queued key frees no slot.
	f.Done(digest(Window + 2))
	if _, _, ok := f.Begin(now); ok {
		t.Fatal("Done of a queued key freed a slot")
	}
	if fetches, _ := f.Counts(); fetches != Window+1 {
		t.Fatalf("fetches = %d, want %d", fetches, Window+1)
	}
}

// TestFetcherSuspectSkippedAcrossWindow: the negative cache is per
// fetcher, not per key. Once one key's request to a holder expires, no
// key — in flight or begun later — asks that holder while the suspicion
// lasts.
func TestFetcherSuspectSkippedAcrossWindow(t *testing.T) {
	const holder = types.ReplicaID(2)
	f := NewFetcher[[32]byte](0, 4, time.Second)
	now := time.Unix(0, 0)
	for i := 0; i < Window; i++ {
		f.Add(digest(i), holder)
		if _, p, _ := f.Begin(now); p != holder {
			t.Fatalf("key %d went to %d, want the holder first", i, p)
		}
	}
	// Every request expires together; the first retry makes the holder
	// suspect and none goes back to it.
	late := now.Add(time.Second)
	for k, ok := f.Expired(late); ok; k, ok = f.Expired(late) {
		if p := f.Retry(k, late); p == holder || p == 0 {
			t.Fatalf("retry went to %d", p)
		}
	}
	// Keys that enter the window later skip the suspect holder too.
	for i := Window; i < 2*Window; i++ {
		f.Done(digest(i - Window))
		f.Add(digest(i), holder)
		if _, p, ok := f.Begin(late); !ok || p == holder {
			t.Fatalf("key %d asked the suspect holder", i)
		}
	}
	// The suspicion lapses after suspectWindow timeouts.
	f.Done(digest(Window))
	f.Add(digest(99), holder)
	if _, p, _ := f.Begin(late.Add(suspectWindow * time.Second)); p != holder {
		t.Fatalf("lapsed suspicion still skips the holder: asked %d", p)
	}
}

// TestFetcherInFlightOrderDeterministic: keys begin in Add order and
// expire in Begin order — the window is a slice, never a map walk — so
// two fetchers fed the same calls make the same requests in the same
// order.
func TestFetcherInFlightOrderDeterministic(t *testing.T) {
	run := func() (order []int, peers []types.ReplicaID) {
		f := NewFetcher[[32]byte](0, 7, time.Second)
		now := time.Unix(0, 0)
		for i := 0; i < 2*Window; i++ {
			f.Add(digest(i), types.ReplicaID(1+i%6))
		}
		for _, p, ok := f.Begin(now); ok; _, p, ok = f.Begin(now) {
			peers = append(peers, p)
		}
		f.Done(digest(2))
		f.Done(digest(5))
		for _, p, ok := f.Begin(now); ok; _, p, ok = f.Begin(now) {
			peers = append(peers, p)
		}
		late := now.Add(time.Second)
		for k, ok := f.Expired(late); ok; k, ok = f.Expired(late) {
			order = append(order, int(k[0]))
			peers = append(peers, f.Retry(k, late))
		}
		return order, peers
	}
	order, peers := run()
	want := []int{0, 1, 3, 4, 6, 7, 8, 9}
	if len(order) != len(want) {
		t.Fatalf("expired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("expired %v, want Begin order %v", order, want)
		}
	}
	for i := 0; i < 20; i++ {
		o, p := run()
		for j := range p {
			if p[j] != peers[j] || j < len(o) && o[j] != order[j] {
				t.Fatalf("run %d diverged at request %d", i, j)
			}
		}
	}
}
