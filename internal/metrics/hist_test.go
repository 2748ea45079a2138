package metrics

import (
	"math/bits"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries is the bucket-placement property test:
// for every exponent k, the values 2^k−1, 2^k, and 2^k+1 must land in
// the bucket equal to their nanosecond bit-length, and non-positive
// values in bucket 0. This pins the log2 bucketing contract BucketUpper
// and Quantile both build on.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []int64{0, -1, -1 << 40, 1, 2, 3}
	for k := 1; k < 63; k++ {
		p := int64(1) << uint(k)
		cases = append(cases, p-1, p, p+1)
	}
	for _, ns := range cases {
		var h Histogram
		h.Record(time.Duration(ns))
		want := 0
		if ns > 0 {
			want = bits.Len64(uint64(ns))
		}
		if want >= HistBuckets {
			want = HistBuckets - 1
		}
		s := h.Snapshot()
		for i, c := range s.Buckets {
			switch {
			case i == want && c != 1:
				t.Fatalf("Record(%d): bucket %d has %d observations, want 1", ns, i, c)
			case i != want && c != 0:
				t.Fatalf("Record(%d): stray count in bucket %d, want everything in %d", ns, i, want)
			}
		}
		if upper := BucketUpper(want); ns > 0 && ns < int64(1)<<62 && ns >= upper {
			t.Fatalf("Record(%d): landed in bucket %d with upper bound %d", ns, want, upper)
		}
	}
}

// TestBucketUpperMonotone checks the bucket bounds are strictly
// increasing until the +Inf clamp — the property sparse Prometheus
// exposition relies on for cumulative le series.
func TestBucketUpperMonotone(t *testing.T) {
	prev := int64(0)
	for i := 0; i < 63; i++ {
		u := BucketUpper(i)
		if u <= prev {
			t.Fatalf("BucketUpper(%d) = %d not > BucketUpper(%d) = %d", i, u, i-1, prev)
		}
		prev = u
	}
	if BucketUpper(63) != BucketUpper(100) {
		t.Fatalf("upper bound not clamped past bucket 62")
	}
}

// TestHistogramConcurrentRecord hammers one histogram from many
// goroutines (run under -race in CI) and checks no observation is lost:
// count, sum, and the bucket total must all agree.
func TestHistogramConcurrentRecord(t *testing.T) {
	const goroutines = 8
	const perG = 10_000
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(time.Duration(g*perG + i + 1))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if want := int64(goroutines * perG); s.Count != want {
		t.Fatalf("count = %d, want %d", s.Count, want)
	}
	var inBuckets int64
	for _, c := range s.Buckets {
		inBuckets += c
	}
	if inBuckets != s.Count {
		t.Fatalf("bucket total %d != count %d", inBuckets, s.Count)
	}
	// Sum of 1..goroutines*perG.
	n := int64(goroutines * perG)
	if want := n * (n + 1) / 2; s.Sum != want {
		t.Fatalf("sum = %d, want %d", s.Sum, want)
	}
}

// TestAllocRegressionHistogramRecord gates the PR 3 discipline for the
// observability hot path: Record and Gauge.Set must not allocate, on a
// live instrument or a nil one.
func TestAllocRegressionHistogramRecord(t *testing.T) {
	var h Histogram
	var g Gauge
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(137 * time.Microsecond)
		g.Set(42)
	}); n > 0 {
		t.Errorf("Histogram.Record + Gauge.Set: %v allocs/op, budget 0", n)
	}
	var nilH *Histogram
	var nilG *Gauge
	if n := testing.AllocsPerRun(1000, func() {
		nilH.Record(time.Millisecond)
		nilG.Set(1)
		nilG.Add(1)
	}); n > 0 {
		t.Errorf("nil-receiver Record/Set: %v allocs/op, budget 0", n)
	}
}

// TestHistogramQuantile checks the interpolated quantiles stay inside
// their bucket and order correctly.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 100 observations at ~1ms (bucket of 2^20ns), 10 at ~1s (2^30ns).
	for i := 0; i < 100; i++ {
		h.Record(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(time.Second)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.50)
	p99 := s.Quantile(0.99)
	msIdx := bits.Len64(uint64(time.Millisecond))
	secIdx := bits.Len64(uint64(time.Second))
	if lo, hi := BucketUpper(msIdx)/2, BucketUpper(msIdx); int64(p50) < lo || int64(p50) > hi {
		t.Errorf("p50 = %v outside the 1ms bucket [%d, %d]", p50, lo, hi)
	}
	if lo, hi := BucketUpper(secIdx)/2, BucketUpper(secIdx); int64(p99) < lo || int64(p99) > hi {
		t.Errorf("p99 = %v outside the 1s bucket [%d, %d]", p99, lo, hi)
	}
	if p50 >= p99 {
		t.Errorf("p50 %v >= p99 %v", p50, p99)
	}
	if got := (HistSnapshot{}).Quantile(0.99); got != 0 {
		t.Errorf("empty snapshot quantile = %v, want 0", got)
	}
}

// TestHistSnapshotMerge checks cross-replica aggregation: merged
// snapshots add bucket-wise and keep the exact mean.
func TestHistSnapshotMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 10; i++ {
		a.Record(time.Millisecond)
		b.Record(3 * time.Second)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 20 {
		t.Fatalf("merged count = %d, want 20", sa.Count)
	}
	if want := 10*int64(time.Millisecond) + 10*int64(3*time.Second); sa.Sum != want {
		t.Fatalf("merged sum = %d, want %d", sa.Sum, want)
	}
	if want := time.Duration((int64(time.Millisecond) + int64(3*time.Second)) / 2); sa.Mean() != want {
		t.Fatalf("merged mean = %v, want %v", sa.Mean(), want)
	}
}

// TestNilHistogramSafe checks optional wiring needs no call-site guards.
func TestNilHistogramSafe(t *testing.T) {
	var h *Histogram
	h.Record(time.Second)
	if h.Count() != 0 {
		t.Fatal("nil histogram count != 0")
	}
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
	var g *Gauge
	g.Set(5)
	g.Add(5)
	if g.Load() != 0 {
		t.Fatal("nil gauge load != 0")
	}
}

// TestRegistryStablePointers checks the read-mostly registry contract:
// concurrent lookups of one name all resolve to the same instrument, so
// hoisting the pointer once at construction time is sound.
func TestRegistryStablePointers(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	counters := make([]*Counter, goroutines)
	hists := make([]*Histogram, goroutines)
	gauges := make([]*Gauge, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			counters[g] = r.Counter("shared")
			hists[g] = r.Histogram("shared")
			gauges[g] = r.Gauge("shared")
			counters[g].Inc()
			hists[g].Record(time.Millisecond)
			r.Snapshot()
			r.Histograms()
			r.Gauges()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if counters[g] != counters[0] || hists[g] != hists[0] || gauges[g] != gauges[0] {
			t.Fatalf("goroutine %d resolved different instrument pointers for one name", g)
		}
	}
	if got := r.Snapshot()["shared"]; got != goroutines {
		t.Fatalf("counter = %d, want %d", got, goroutines)
	}
	if got := r.Histograms()["shared"].Count; got != goroutines {
		t.Fatalf("histogram count = %d, want %d", got, goroutines)
	}
}

// TestNilRegistryDetached checks the nil registry returns detached but
// usable instruments.
func TestNilRegistryDetached(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Histogram("x").Record(time.Second)
	r.Gauge("x").Set(1)
	if r.Snapshot() != nil || r.Histograms() != nil || r.Gauges() != nil {
		t.Fatal("nil registry snapshots not nil")
	}
}

// BenchmarkCounterHoisted measures the per-event cost when the *Counter
// is looked up once and cached in a struct field — the discipline every
// hot path in this codebase follows. Compare with
// BenchmarkCounterRegistryLookup to see what the discipline buys.
func BenchmarkCounterHoisted(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_hoisted")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkCounterRegistryLookup measures the anti-pattern: a registry
// map lookup under RLock on every event.
func BenchmarkCounterRegistryLookup(b *testing.B) {
	r := NewRegistry()
	r.Counter("bench_lookup")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Counter("bench_lookup").Inc()
	}
}

// BenchmarkHistogramRecord measures the observability hot-path record.
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i))
	}
}
