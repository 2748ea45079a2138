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

// accept hands s body as origin's announce.
func accept(s *Store, origin types.ReplicaID, body types.Payload) bool {
	return s.Accept(origin, &types.BatchAnnounce{Origin: origin, Digest: body.Digest(), Body: body})
}

// digests lists a payload's ref digests.
func digests(p types.Payload) [][32]byte {
	var out [][32]byte
	for _, r := range p.Batches {
		out = append(out, r.Digest)
	}
	return out
}

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
	if p := s.Propose(nil); p.Size() != 0 {
		t.Fatalf("unacked batch proposed: %+v", p)
	}
	s.RecordAck(anns[0].Digest, 1)
	s.RecordAck(anns[0].Digest, 1) // duplicate, ignored
	s.RecordAck(anns[0].Digest, 0) // self, ignored
	if p := s.Propose(nil); p.Size() != 0 {
		t.Fatal("batch proposed below ack quorum")
	}
	s.RecordAck(anns[0].Digest, 2)
	p := s.Propose(nil)
	if len(p.Batches) != 1 || p.Batches[0].Digest != anns[0].Digest || p.Batches[0].Size != 200 {
		t.Fatalf("acked prefix not proposed: %+v", p.Batches)
	}
	// Proposing does not consume: a proposal on a parent chain that lacks
	// the block (its block was orphaned) names the batch again, one on a
	// chain holding it does not — and the second batch waits for acks.
	if again := s.Propose(nil); len(again.Batches) != 1 || again.Batches[0].Digest != anns[0].Digest {
		t.Fatalf("batch of an undecided block not proposable again: %+v", again.Batches)
	}
	if next := s.Propose(p.Batches); next.Size() != 0 {
		t.Fatal("second batch proposed without acks, or the chain's batch repeated")
	}
	s.RecordAck(anns[1].Digest, 1)
	s.RecordAck(anns[1].Digest, 3)
	next := s.Propose(p.Batches)
	if len(next.Batches) != 1 || next.Batches[0].Digest != anns[1].Digest {
		t.Fatalf("second batch not proposed after acks: %+v", next.Batches)
	}
	if got := s.acks; got != 4 {
		t.Fatalf("acks = %d, want 4 (two per batch, stopping at the quorum)", got)
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
	p := s.Propose(nil)
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
	p := s.Propose(nil)
	if len(p.Batches) != 2 || p.Size() != 200 {
		t.Fatalf("block budget not honored: %d batches, %d bytes", len(p.Batches), p.Size())
	}
	p = s.Propose(p.Batches)
	if len(p.Batches) != 1 {
		t.Fatalf("remaining batch not proposed next: %+v", p.Batches)
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
	missing := s.Missing(p, 1)
	if len(missing) != 1 || missing[0] != b2.Digest() {
		t.Fatalf("wrong missing set: %v", missing)
	}
	if got := s.Bodies(p, 1); len(got) != 1 || !bytes.Equal(got[0].Data, b1.Data) {
		t.Fatalf("Bodies served a missing batch: %v", got)
	}
	s.Put(b2.Digest(), b2)
	got := s.Bodies(p, 1)
	if len(got) != 2 || !bytes.Equal(got[0].Data, b1.Data) || !bytes.Equal(got[1].Data, b2.Data) {
		t.Fatalf("Bodies wrong: %v", got)
	}
	// A fetched body is never proposable.
	if p := s.Propose(nil); p.Size() != 0 {
		t.Fatalf("fetched body pooled: %+v", p.Batches)
	}
}

func TestStoreCompactRetainsWindow(t *testing.T) {
	s := NewStore(Config{Self: 0, N: 4})
	old := types.BytesPayload(tx('o', 10))
	young := types.BytesPayload(tx('y', 10))
	undelivered := types.BytesPayload(tx('u', 10))
	pooled := types.BytesPayload(tx('p', 10))
	orphan := types.BytesPayload(tx('x', 10))
	ref := func(b types.Payload) types.Payload {
		return types.BatchPayload([]types.BatchRef{{Digest: b.Digest(), Size: 10}}, nil)
	}
	for r, b := range []types.Payload{old, young, undelivered} {
		accept(s, 1, b)
		s.MarkFinalized(ref(b), types.Round([]int{5, 20, 8}[r]))
	}
	accept(s, 2, pooled)
	s.Put(orphan.Digest(), orphan) // neither pooled nor finalized
	s.MarkDelivered(ref(old), 5)
	s.MarkDelivered(ref(young), 20)
	if got := s.HeldBytes(); got != 5*10 {
		t.Fatalf("HeldBytes = %d before compaction, want 50", got)
	}
	kept := s.Bodies(ref(old), 5)
	s.Compact(10)
	if s.Has(old.Digest()) || s.Has(orphan.Digest()) {
		t.Fatal("compaction kept a body behind the floor, or one nothing references")
	}
	if !s.Has(young.Digest()) || !s.Has(undelivered.Digest()) || !s.Has(pooled.Digest()) {
		t.Fatal("compaction dropped a retained, undelivered or pooled body")
	}
	if got := s.HeldBytes(); got != 3*10 {
		t.Fatalf("HeldBytes = %d after compaction, want 30", got)
	}
	// A body handed out before compaction stays readable after it.
	if len(kept) != 1 || !bytes.Equal(kept[0].Data, old.Data) {
		t.Fatalf("compaction emptied a body already handed out: %v", kept)
	}
}

// TestStoreProposesEveryOrigin: another origin's batch is proposable the
// moment its body arrives, without acks, in receipt order beside the own
// acked ones; a proposal skips what its parent chain references.
func TestStoreProposesEveryOrigin(t *testing.T) {
	src := &queueSource{txs: [][]byte{tx('a', 10)}}
	s := NewStore(Config{Self: 0, N: 4, BatchBytes: 10, BlockBytes: 100, AckQuorum: 1, Source: src})
	f1, f2 := types.BytesPayload(tx('f', 10)), types.BytesPayload(tx('g', 10))
	accept(s, 2, f1)
	own := s.TakeAnnounces()[0]
	accept(s, 3, f2)

	p := s.Propose(nil)
	if got := digests(p); len(got) != 2 || got[0] != f1.Digest() || got[1] != f2.Digest() {
		t.Fatalf("proposal = %x, want both foreign batches (the own one is unacked)", got)
	}
	s.RecordAck(own.Digest, 1)
	p = s.Propose(p.Batches[:1])
	if got := digests(p); len(got) != 2 || got[0] != own.Digest || got[1] != f2.Digest() {
		t.Fatalf("proposal on a chain holding f1 = %x, want own then f2 in receipt order", got)
	}
	if m := metrics(s); m["dissemForeignRefs"] != 3 {
		t.Fatalf("dissemForeignRefs = %d, want 3", m["dissemForeignRefs"])
	}
}

func metrics(s *Store) map[string]int64 {
	m := map[string]int64{}
	s.Metrics(m)
	return m
}

// TestStoreFinalizedDigestNeverPooledAgain: a batch leaves the pool when
// a finalized block references it; a late announce of it is stored,
// served and acked, but never proposed.
func TestStoreFinalizedDigestNeverPooledAgain(t *testing.T) {
	s := NewStore(Config{Self: 0, N: 4})
	b := types.BytesPayload(tx('l', 10))
	p := types.BatchPayload([]types.BatchRef{{Digest: b.Digest(), Size: 10}}, nil)
	s.MarkFinalized(p, 3)
	if !accept(s, 1, b) {
		t.Fatal("late announce of a finalized digest refused")
	}
	if got, ok := s.Get(b.Digest()); !ok || !bytes.Equal(got.Data, b.Data) {
		t.Fatal("late body not served")
	}
	if q := s.Propose(nil); q.Size() != 0 {
		t.Fatalf("finalized digest proposed again: %+v", q.Batches)
	}
	// Pooled first, then finalized: it leaves the pool.
	c := types.BytesPayload(tx('m', 10))
	accept(s, 2, c)
	s.MarkFinalized(types.BatchPayload([]types.BatchRef{{Digest: c.Digest(), Size: 10}}, nil), 4)
	if q := s.Propose(nil); q.Size() != 0 {
		t.Fatalf("finalized batch still pooled: %+v", q.Batches)
	}
}

// TestStoreSkipsRepeatedRefs: a ref repeated within a block, or repeating
// one finalized within the index window, is skipped at delivery; beyond
// the window it is delivered again.
func TestStoreSkipsRepeatedRefs(t *testing.T) {
	s := NewStore(Config{Self: 0, N: 4})
	b := types.BytesPayload(tx('r', 10))
	ref := types.BatchRef{Digest: b.Digest(), Size: 10}
	s.Put(b.Digest(), b)
	twice := types.BatchPayload([]types.BatchRef{ref, ref}, nil)
	s.MarkFinalized(twice, 10)
	s.MarkFinalized(twice, 10) // marking again changes nothing
	if n := len(s.Bodies(twice, 10)); n != 1 {
		t.Fatalf("%d of a block's two refs to one body delivered, want the first only", n)
	}
	once := types.BatchPayload([]types.BatchRef{ref}, nil)
	s.MarkFinalized(once, 10+indexWindow)
	if len(s.Bodies(once, 10+indexWindow)) != 0 {
		t.Fatal("repeat within the window delivered")
	}
	if len(s.Missing(once, 10+indexWindow)) != 0 {
		t.Fatal("a skipped ref gates delivery")
	}
	s.MarkFinalized(once, 11+indexWindow)
	if len(s.Bodies(once, 11+indexWindow)) != 1 {
		t.Fatal("repeat beyond the window skipped")
	}
	m := map[string]int64{}
	s.Metrics(m)
	if got := m["dissemSkippedBytes"]; got != 2*10 {
		t.Fatalf("dissemSkippedBytes = %d, want the two skipped 10-byte refs", got)
	}
}

// TestStoreCapsForeignBytesPerOrigin: an origin's pooled bytes stop at
// 2×BlockBytes + BatchBytes; announces beyond are refused (not stored,
// not acked) and counted, and finalization frees room again.
func TestStoreCapsForeignBytesPerOrigin(t *testing.T) {
	s := NewStore(Config{Self: 0, N: 4, BatchBytes: 10, BlockBytes: 20})
	var first types.Payload
	for i := 0; i < 6; i++ {
		b := types.BytesPayload(tx(byte('a'+i), 10))
		if i == 0 {
			first = b
		}
		if got, want := accept(s, 3, b), i < 5; got != want {
			t.Fatalf("batch %d accepted = %v, want %v", i, got, want)
		}
	}
	m := metrics(s)
	if m["dissemRefused"] != 1 || m["dissemForeignHeldMax"] != 50 || m["dissemBodiesHeld"] != 5 {
		t.Fatalf("refused %d, held max %d, bodies %d; want 1, 50, 5",
			m["dissemRefused"], m["dissemForeignHeldMax"], m["dissemBodiesHeld"])
	}
	other := types.BytesPayload(tx('z', 10))
	if !accept(s, 2, other) {
		t.Fatal("another origin refused for the first one's bytes")
	}
	s.MarkFinalized(types.BatchPayload([]types.BatchRef{{Digest: first.Digest(), Size: 10}}, nil), 1)
	if late := types.BytesPayload(tx('f', 10)); !accept(s, 3, late) {
		t.Fatal("finalization did not free the origin's room")
	}
}

// countingSource cuts one fixed batch per call, preallocated, so the
// allocation test sees only the store's own work.
type countingSource struct {
	bodies []types.Payload
	next   int
}

func (c *countingSource) CutBatch(int) types.Payload {
	if c.next == len(c.bodies) {
		return types.Payload{}
	}
	c.next++
	return c.bodies[c.next-1]
}

// TestAllocRegressionDissemCycle: one batch through cut → ack → propose →
// finalize → deliver → compact costs two allocations: the batch's record
// (body, announce and acks in one object) and the ref list the proposal's
// block keeps. Acks count without a map, and the pool, the announce list
// and the pick list are reused.
func TestAllocRegressionDissemCycle(t *testing.T) {
	const runs = 200
	src := &countingSource{}
	for i := 0; i < runs+10; i++ {
		b := types.BytesPayload(append(tx('t', 60), byte(i), byte(i>>8)))
		b.Digest()
		src.bodies = append(src.bodies, b)
	}
	s := NewStore(Config{Self: 0, N: 4, BatchBytes: 64, BlockBytes: 32, Source: src})
	round := types.Round(0)
	cycle := func() {
		round++
		anns := s.TakeAnnounces()
		for _, a := range anns {
			s.RecordAck(a.Digest, 1)
			s.RecordAck(a.Digest, 2)
		}
		p := s.Propose(nil)
		s.MarkFinalized(p, round)
		s.MarkDelivered(p, round)
		s.Compact(round)
	}
	cycle() // warm the maps and scratch slices
	if allocs := testing.AllocsPerRun(runs, cycle); allocs > 2 {
		t.Fatalf("cut → ack → propose → finalize allocates %.0f times per batch, want ≤ 2", allocs)
	}
	if round < 100 || s.cut < 100 {
		t.Fatalf("the cycle ran %d rounds and cut %d batches", round, s.cut)
	}
}

// TestAckSetBeyondInline: quorums larger than the inline set spill over
// and still count each peer once.
func TestAckSetBeyondInline(t *testing.T) {
	var a ackSet
	const quorum = ackInline + 3
	for i := 0; i < 2*quorum; i++ {
		a.add(types.ReplicaID(i%(quorum+1)), quorum)
		a.add(types.ReplicaID(i%(quorum+1)), quorum)
	}
	if a.n != quorum || len(a.more) != quorum-ackInline {
		t.Fatalf("ackSet holds %d peers (%d spilled), want %d", a.n, len(a.more), quorum)
	}
}
