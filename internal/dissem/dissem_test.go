package dissem

import (
	"bytes"
	"testing"

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
