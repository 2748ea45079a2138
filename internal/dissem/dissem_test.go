package dissem

import (
	"bytes"
	"testing"
	"time"

	"banyan/internal/types"
)

// queueSource is a deterministic Source: a FIFO of transaction blobs,
// cut greedily like the mempool.
type queueSource struct {
	txs [][]byte
}

func (q *queueSource) CutBatch(max int) types.Payload {
	var buf []byte
	for len(q.txs) > 0 && len(buf)+len(q.txs[0]) <= max {
		buf = append(buf, q.txs[0]...)
		q.txs = q.txs[1:]
	}
	if len(buf) == 0 {
		return types.Payload{}
	}
	return types.BytesPayload(buf)
}

func tx(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func TestStoreCutAnnounceAckPropose(t *testing.T) {
	src := &queueSource{txs: [][]byte{tx('a', 100), tx('b', 100), tx('c', 100)}}
	s := NewStore(Config{Self: 0, N: 4, BatchBytes: 200, BlockBytes: 1000, AckQuorum: 2, Source: src})

	anns := s.TakeAnnounces()
	if len(anns) != 2 {
		t.Fatalf("expected 2 batches (200B + 100B), got %d", len(anns))
	}
	for _, a := range anns {
		if a.Origin != 0 || a.IsAck() {
			t.Fatalf("bad announce: %+v", a)
		}
		if a.Body.Digest() != a.Digest {
			t.Fatal("announce digest does not match body")
		}
	}
	// Without quorum acks nothing is proposable.
	if p := s.NextPayload(1); p.Size() != 0 {
		t.Fatalf("unacked batch proposed: %+v", p)
	}
	// Re-queue: NextPayload must not have consumed the batches.
	s.RecordAck(anns[0].Digest, 1)
	s.RecordAck(anns[0].Digest, 1) // duplicate, ignored
	s.RecordAck(anns[0].Digest, 0) // self, ignored
	if p := s.NextPayload(2); p.Size() != 0 {
		t.Fatal("batch proposed below ack quorum")
	}
	s.RecordAck(anns[0].Digest, 2)
	p := s.NextPayload(3)
	if len(p.Batches) != 1 || p.Batches[0].Digest != anns[0].Digest || p.Batches[0].Size != 200 {
		t.Fatalf("acked prefix not proposed: %+v", p.Batches)
	}
	// The second batch stays queued (FIFO prefix stopped at it), and the
	// first never reappears.
	if p := s.NextPayload(4); p.Size() != 0 {
		t.Fatal("second batch proposed without acks, or first duplicated")
	}
	s.RecordAck(anns[1].Digest, 1)
	s.RecordAck(anns[1].Digest, 3)
	p = s.NextPayload(5)
	if len(p.Batches) != 1 || p.Batches[0].Digest != anns[1].Digest {
		t.Fatalf("second batch not proposed after acks: %+v", p.Batches)
	}
}

func TestStoreFIFOPrefixStopsAtUnacked(t *testing.T) {
	src := &queueSource{txs: [][]byte{tx('a', 10), tx('b', 10), tx('c', 10)}}
	s := NewStore(Config{Self: 0, N: 4, BatchBytes: 10, BlockBytes: 100, AckQuorum: 1, Source: src})
	anns := s.TakeAnnounces()
	if len(anns) != 3 {
		t.Fatalf("expected 3 batches, got %d", len(anns))
	}
	// Ack batches 0 and 2, not 1: only batch 0 may be proposed — order is
	// part of the committed sequence, so the prefix stops at the gap.
	s.RecordAck(anns[0].Digest, 1)
	s.RecordAck(anns[2].Digest, 1)
	p := s.NextPayload(1)
	if len(p.Batches) != 1 || p.Batches[0].Digest != anns[0].Digest {
		t.Fatalf("expected exactly the acked prefix, got %+v", p.Batches)
	}
}

func TestStoreBlockBytesBudget(t *testing.T) {
	src := &queueSource{txs: [][]byte{tx('a', 100), tx('b', 100), tx('c', 100)}}
	s := NewStore(Config{Self: 0, N: 4, BatchBytes: 100, BlockBytes: 250, AckQuorum: 1, Source: src})
	anns := s.TakeAnnounces()
	for _, a := range anns {
		s.RecordAck(a.Digest, 1)
	}
	p := s.NextPayload(1)
	if len(p.Batches) != 2 || p.Size() != 200 {
		t.Fatalf("block budget not honored: %d batches, %d bytes", len(p.Batches), p.Size())
	}
	p = s.NextPayload(2)
	if len(p.Batches) != 1 {
		t.Fatalf("remaining batch not proposed next: %+v", p.Batches)
	}
}

func TestStoreInlineTail(t *testing.T) {
	src := &queueSource{txs: [][]byte{tx('a', 400), tx('b', 30)}}
	s := NewStore(Config{Self: 0, N: 4, BatchBytes: 400, BlockBytes: 1000, InlineMax: 64, AckQuorum: 1, Source: src})
	anns := s.TakeAnnounces() // cuts everything: 400B batch + 30B batch
	for _, a := range anns {
		s.RecordAck(a.Digest, 1)
	}
	p := s.NextPayload(1)
	if len(p.Batches) != len(anns) {
		t.Fatalf("acked batches not all proposed: %d", len(p.Batches))
	}
	// Now submit a latency-sensitive tx: with batches drained it rides the
	// inline tail of the next proposal instead of a dissemination cycle.
	src.txs = append(src.txs, tx('z', 20))
	p = s.NextPayload(2)
	if len(p.Batches) != 0 || !bytes.Equal(p.Data, tx('z', 20)) {
		t.Fatalf("inline tail missing: %+v", p)
	}
}

func TestStorePutGetMissingBodies(t *testing.T) {
	s := NewStore(Config{Self: 1, N: 4})
	b1 := types.BytesPayload(tx('x', 50))
	b2 := types.BytesPayload(tx('y', 60))
	if !s.Put(b1.Digest(), b1) || s.Put(b1.Digest(), b1) {
		t.Fatal("Put idempotence broken")
	}
	p := types.BatchPayload([]types.BatchRef{
		{Digest: b1.Digest(), Size: 50},
		{Digest: b2.Digest(), Size: 60},
	}, nil)
	missing := s.Missing(p)
	if len(missing) != 1 || missing[0] != b2.Digest() {
		t.Fatalf("wrong missing set: %v", missing)
	}
	if _, ok := s.Bodies(p); ok {
		t.Fatal("Bodies succeeded with a missing batch")
	}
	s.Put(b2.Digest(), b2)
	bodies, ok := s.Bodies(p)
	if !ok || len(bodies) != 2 || !bytes.Equal(bodies[0].Data, b1.Data) || !bytes.Equal(bodies[1].Data, b2.Data) {
		t.Fatalf("Bodies wrong: %v %v", bodies, ok)
	}
}

func TestStoreCompactRetainsWindow(t *testing.T) {
	s := NewStore(Config{Self: 0, N: 4})
	old := types.BytesPayload(tx('o', 10))
	young := types.BytesPayload(tx('y', 10))
	undelivered := types.BytesPayload(tx('u', 10))
	s.Put(old.Digest(), old)
	s.Put(young.Digest(), young)
	s.Put(undelivered.Digest(), undelivered)
	s.MarkDelivered(types.BatchPayload([]types.BatchRef{{Digest: old.Digest(), Size: 10}}, nil), 5)
	s.MarkDelivered(types.BatchPayload([]types.BatchRef{{Digest: young.Digest(), Size: 10}}, nil), 20)
	s.Compact(10)
	if s.Has(old.Digest()) {
		t.Fatal("compaction kept a body behind the floor")
	}
	if !s.Has(young.Digest()) || !s.Has(undelivered.Digest()) {
		t.Fatal("compaction dropped a retained or undelivered body")
	}
}

func TestFetcherDedupOriginFirstRotation(t *testing.T) {
	f := NewFetcher[[32]byte](0, 4, 100*time.Millisecond)
	var d1, d2 [32]byte
	d1[0], d2[0] = 1, 2
	if !f.Add(d1, 2) || f.Add(d1, 2) {
		t.Fatal("dedup broken")
	}
	f.Add(d2, 3)
	now := time.Unix(0, 0)
	if !f.Begin(now) || f.Begin(now) {
		t.Fatal("Begin must start exactly one fetch")
	}
	if f.Key() != d1 || f.Peer() != 2 {
		t.Fatalf("first attempt must go to the origin: peer %d", f.Peer())
	}
	if f.Expired(now.Add(50 * time.Millisecond)) {
		t.Fatal("expired early")
	}
	if !f.Expired(now.Add(100 * time.Millisecond)) {
		t.Fatal("not expired at deadline")
	}
	p1 := f.Retry(now.Add(100 * time.Millisecond))
	if p1 == 2 || p1 == 0 {
		t.Fatalf("retry went back to the timed-out origin or self: %d", p1)
	}
	seen := map[types.ReplicaID]bool{p1: true}
	for i := 0; i < 2; i++ {
		seen[f.Retry(now)] = true
	}
	if len(seen) != 3 || seen[0] {
		t.Fatalf("rotation did not cover the peers: %v", seen)
	}

	f.Done(d1)
	if f.Fetching() {
		t.Fatal("Done did not clear the in-flight fetch")
	}
	if !f.Add(d1, 2) {
		t.Fatal("completed digest cannot be re-added")
	}
	// d2 is still queued; the new d1 is behind it.
	if !f.Begin(now) || f.Key() != d2 {
		t.Fatalf("queue order broken: %v", f.Key())
	}
	// A late announce satisfies a queued (not in-flight) digest.
	f.Done(d1)
	f.Done(d2)
	if f.Fetching() || f.Pending() {
		t.Fatal("Done did not drain the fetcher")
	}
	if f.Begin(now) {
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
	if !f.Begin(now) || f.Peer() != 4 || f.Sent() != 1 {
		t.Fatalf("first request must go to the peer first heard from: peer %d", f.Peer())
	}
	f.Add(k, 2) // learned while in flight
	if p := f.Retry(now); p != 6 {
		t.Fatalf("second request must go to the next holder, got %d", p)
	}
	if p := f.Retry(now); p != 2 {
		t.Fatalf("self must be skipped and the late holder asked, got %d", p)
	}
	// Holders exhausted: the ring (1, 2, ... from self+1) takes over and
	// never re-asks the peer that just timed out.
	if p := f.Retry(now); p != 1 {
		t.Fatalf("ring must take over after the holders, got %d", p)
	}
	if p := f.Retry(now); p == 1 || p == 0 {
		t.Fatalf("ring re-asked the silent peer or self: %d", p)
	}
	if f.Sent() != 5 {
		t.Fatalf("Sent = %d, want 5", f.Sent())
	}
	if fetches, retries := f.Counts(); fetches != 1 || retries != 4 {
		t.Fatalf("Counts = %d, %d", fetches, retries)
	}
	f.Done(k)

	// Peer 4 timed out above: while suspect it loses its holder turn.
	k2 := key{round: 6}
	f.Add(k2, 4)
	if !f.Begin(now) || f.Peer() == 4 {
		t.Fatalf("suspect holder was preferred: peer %d", f.Peer())
	}
}
