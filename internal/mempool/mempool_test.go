package mempool

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"banyan/internal/types"
)

func TestSyntheticSource(t *testing.T) {
	src := NewSynthetic(4096, 1, false)
	p1 := src.NextPayload(1)
	p2 := src.NextPayload(1)
	if !p1.IsSynthetic() || p1.Size() != 4096 {
		t.Fatalf("unexpected payload %+v", p1)
	}
	if p1.Digest() == p2.Digest() {
		t.Fatal("consecutive synthetic payloads must differ")
	}
	mat := NewSynthetic(128, 1, true)
	p := mat.NextPayload(1)
	if p.IsSynthetic() || len(p.Data) != 128 {
		t.Fatalf("materialized payload %+v", p)
	}
}

func TestPoolFIFOAndBatching(t *testing.T) {
	pool := NewPool(0, 1024)
	var want [][]byte
	for i := 0; i < 10; i++ {
		tx := []byte(fmt.Sprintf("tx-%02d", i))
		want = append(want, tx)
		if !pool.Submit(tx) {
			t.Fatalf("submit %d rejected", i)
		}
	}
	if pool.Len() != 10 {
		t.Fatalf("Len = %d, want 10", pool.Len())
	}
	payload := pool.NextPayload(1)
	got := DecodeBatch(payload)
	if len(got) != 10 {
		t.Fatalf("decoded %d transactions, want 10", len(got))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("tx %d out of order: %q vs %q", i, got[i], want[i])
		}
	}
	if pool.Len() != 0 {
		t.Fatalf("pool not drained: %d left", pool.Len())
	}
	if p := pool.NextPayload(2); p.Size() != 0 {
		t.Fatalf("empty pool produced payload of size %d", p.Size())
	}
}

func TestPoolBlockSizeLimit(t *testing.T) {
	pool := NewPool(0, 100)
	big := make([]byte, 200)
	if pool.Submit(big) {
		t.Fatal("transaction larger than a block accepted")
	}
	// Several transactions that cannot all fit in one block.
	for i := 0; i < 5; i++ {
		if !pool.Submit(make([]byte, 30)) {
			t.Fatalf("submit %d rejected", i)
		}
	}
	first := DecodeBatch(pool.NextPayload(1))
	if len(first) != 2 { // 2*(4+30) = 68 fits; 3 would be 102 > 100
		t.Fatalf("first block has %d txs, want 2", len(first))
	}
	second := DecodeBatch(pool.NextPayload(2))
	if len(first)+len(second)+pool.Len() != 5 {
		t.Fatal("transactions lost across batches")
	}
}

func TestPoolCapacity(t *testing.T) {
	pool := NewPool(100, 1000)
	if !pool.Submit(make([]byte, 80)) {
		t.Fatal("first submit rejected")
	}
	if pool.Submit(make([]byte, 30)) {
		t.Fatal("pool accepted beyond its byte capacity")
	}
	pool.NextPayload(1) // drain
	if !pool.Submit(make([]byte, 30)) {
		t.Fatal("submit rejected after drain")
	}
}

func TestPoolRejectsEmpty(t *testing.T) {
	pool := NewPool(0, 0)
	if pool.Submit(nil) || pool.Submit([]byte{}) {
		t.Fatal("empty transaction accepted")
	}
}

func TestPoolConcurrentSubmit(t *testing.T) {
	pool := NewPool(0, 1<<20)
	var wg sync.WaitGroup
	const workers, each = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				pool.Submit([]byte(fmt.Sprintf("w%d-%d", w, i)))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	total := 0
	for {
		select {
		case <-done:
			for {
				batch := DecodeBatch(pool.NextPayload(1))
				if len(batch) == 0 {
					break
				}
				total += len(batch)
			}
			if total != workers*each {
				t.Errorf("got %d transactions, want %d", total, workers*each)
			}
			return
		default:
			total += len(DecodeBatch(pool.NextPayload(1)))
		}
	}
}

// TestPoolTypedRejections pins the typed Submit errors and their metric
// counters: oversized transactions are refused outright (never truncated
// or stranded), full-pool rejections are distinguishable, and both are
// counted for the metrics registry.
func TestPoolTypedRejections(t *testing.T) {
	pool := NewPool(100, 50)
	if err := pool.SubmitErr(nil); err != ErrTxEmpty {
		t.Fatalf("empty: got %v", err)
	}
	if err := pool.SubmitErr(make([]byte, 47)); err != ErrTxTooLarge {
		t.Fatalf("oversize (47+4 > 50): got %v", err)
	}
	if err := pool.SubmitErr(make([]byte, 40)); err != nil {
		t.Fatalf("valid submit rejected: %v", err)
	}
	if err := pool.SubmitErr(make([]byte, 40)); err != nil {
		t.Fatalf("second submit rejected: %v", err)
	}
	if err := pool.SubmitErr(make([]byte, 40)); err != ErrPoolFull {
		t.Fatalf("full: got %v", err)
	}
	// The oversized transaction must not have entered the queue in any
	// truncated form.
	for pool.Len() > 0 {
		for _, tx := range DecodeBatch(pool.NextPayload(1)) {
			if len(tx) != 40 {
				t.Fatalf("truncated transaction of %d bytes leaked into a batch", len(tx))
			}
		}
	}
	m := map[string]int64{}
	pool.Metrics(m)
	if m["mempoolRejectedOversize"] != 1 || m["mempoolRejectedFull"] != 1 {
		t.Fatalf("rejection counters wrong: %v", m)
	}
}

// TestShardedPoolFairness checks the round-robin drain: a heavy submitter
// cannot starve a light one out of the next batch.
func TestShardedPoolFairness(t *testing.T) {
	pool := NewShardedPool(0, 1024, 4)
	for i := 0; i < 50; i++ {
		if err := pool.SubmitFrom(0, []byte(fmt.Sprintf("heavy-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.SubmitFrom(1, []byte("light-tx")); err != nil {
		t.Fatal(err)
	}
	batch := DecodeBatch(pool.NextPayload(1))
	found := false
	for _, tx := range batch {
		if bytes.Equal(tx, []byte("light-tx")) {
			found = true
		}
	}
	if !found {
		t.Fatal("light submitter starved out of the first batch")
	}
	// FIFO within the heavy shard must be preserved.
	var heavy [][]byte
	for _, tx := range batch {
		if bytes.HasPrefix(tx, []byte("heavy-")) {
			heavy = append(heavy, tx)
		}
	}
	for i := range heavy {
		if want := fmt.Sprintf("heavy-%02d", i); string(heavy[i]) != want {
			t.Fatalf("heavy shard out of order: %q at %d", heavy[i], i)
		}
	}
}

// TestCutBatchMatchesNextPayload is the dissemination equivalence
// property at the mempool level: cutting one submitter's queue into
// dissemination batches and concatenating them yields the same
// transaction sequence as draining inline payloads, regardless of where
// the batch boundaries fall.
func TestCutBatchMatchesNextPayload(t *testing.T) {
	submit := func(pool *Pool) {
		r := rand.New(rand.NewSource(77))
		for i := 0; i < 100; i++ {
			tx := make([]byte, r.Intn(60)+1)
			r.Read(tx)
			if err := pool.SubmitFrom(3, tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	inline := NewShardedPool(0, 1<<20, 4)
	dissem := NewShardedPool(0, 1<<20, 4)
	submit(inline)
	submit(dissem)

	var a, b [][]byte
	for inline.Len() > 0 {
		a = append(a, DecodeBatch(inline.NextPayload(1))...)
	}
	for dissem.Len() > 0 {
		b = append(b, DecodeBatch(dissem.CutBatch(256))...)
	}
	if len(a) != len(b) || len(a) != 100 {
		t.Fatalf("sequence lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("sequence diverges at %d", i)
		}
	}
}

func TestDecodeBatchMalformed(t *testing.T) {
	if DecodeBatch(types.BytesPayload([]byte{1, 0, 0})) != nil {
		t.Fatal("truncated prefix decoded")
	}
	if DecodeBatch(types.BytesPayload([]byte{10, 0, 0, 0, 1})) != nil {
		t.Fatal("length beyond data decoded")
	}
	if DecodeBatch(types.BytesPayload([]byte{0, 0, 0, 0})) != nil {
		t.Fatal("zero-length transaction decoded")
	}
	if DecodeBatch(types.Payload{}) != nil {
		t.Fatal("empty payload should decode to nil")
	}
}

// TestQuickBatchRoundTrip: submitting arbitrary transactions and decoding
// the produced batches yields the same transactions in order.
func TestQuickBatchRoundTrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := NewPool(0, 1<<20)
		var want [][]byte
		for i := 0; i < int(count%40)+1; i++ {
			tx := make([]byte, rng.Intn(100)+1)
			rng.Read(tx)
			if pool.Submit(tx) {
				want = append(want, tx)
			}
		}
		var got [][]byte
		for pool.Len() > 0 {
			got = append(got, DecodeBatch(pool.NextPayload(1))...)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDecodeBatchListClipped: a pool batch is the list it claimed, and
// DecodeBatch returns that list clipped to its length, so a caller that
// appends to the result cannot write into the list's spare capacity. A
// list with a zero-length transaction, or none, decodes to nil as the
// contiguous form does.
func TestDecodeBatchListClipped(t *testing.T) {
	pool := NewPool(0, 1<<20)
	for _, tx := range []string{"a", "bb", "ccc"} {
		if err := pool.SubmitErr([]byte(tx)); err != nil {
			t.Fatal(err)
		}
	}
	p := pool.NextPayload(1)
	if cap(p.Txs()) == len(p.Txs()) {
		t.Fatalf("fixture: claimed list has no spare capacity (len %d)", len(p.Txs()))
	}
	got := DecodeBatch(p)
	if len(got) != 3 || cap(got) != len(got) || string(got[2]) != "ccc" {
		t.Fatalf("DecodeBatch = %q (cap %d), want the 3 transactions clipped", got, cap(got))
	}
	if DecodeBatch(types.TxsPayload([][]byte{[]byte("x"), {}})) != nil {
		t.Fatal("zero-length transaction in a list decoded")
	}
	if DecodeBatch(types.TxsPayload([][]byte{})) != nil {
		t.Fatal("empty list should decode to nil")
	}
}

// TestAllocRegressionNextPayload: draining a full 256 KiB block of 15
// 16 KiB transactions copies none of them; the list of claimed
// transactions is all NextPayload allocates.
func TestAllocRegressionNextPayload(t *testing.T) {
	const rounds = 20
	pool := NewPool(0, 256<<10)
	tx := make([]byte, 16<<10)
	var ms runtime.MemStats
	var total uint64
	for i := 0; i < rounds; i++ {
		for k := 0; k < 15; k++ {
			if err := pool.SubmitErr(tx); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		p := pool.NextPayload(1)
		runtime.ReadMemStats(&ms)
		total += ms.TotalAlloc - before
		if len(p.Txs()) != 15 || pool.Len() != 0 {
			t.Fatalf("drained %d transactions, %d left; want all 15", len(p.Txs()), pool.Len())
		}
	}
	per := total / rounds
	if per >= 1<<10 {
		t.Errorf("NextPayload allocates %d B per 256 KiB block, budget < 1 KiB", per)
	}
	t.Logf("NextPayload: %d B per 256 KiB block", per)
}
