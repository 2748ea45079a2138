package obs

import (
	"testing"
	"time"

	"banyan/internal/metrics"
	"banyan/internal/types"
)

// TestObserverNew checks every hoisted instrument is wired to the
// registry under its canonical name, so the hot-path field loads and the
// Prometheus exporter observe the same histograms.
func TestObserverNew(t *testing.T) {
	o := New(Options{})
	if o.Registry == nil || o.Tracer == nil || o.Detector == nil {
		t.Fatal("observer missing a component")
	}
	o.CommitLatency.Record(time.Millisecond)
	o.VerifyTime.Record(time.Microsecond)
	o.Round.Set(42)
	if got := o.Registry.Histograms()[HistCommitLatency].Count; got != 1 {
		t.Errorf("commit_latency not in registry (count %d)", got)
	}
	if got := o.Registry.Gauges()[GaugeRound]; got != 42 {
		t.Errorf("round gauge = %d, want 42", got)
	}
	for _, name := range []string{
		HistCommitLatency, HistVerifyTime,
		HistWALFlush, HistDissemFetch, HistDeliveryWait,
	} {
		if _, ok := o.Registry.Histograms()[name]; !ok {
			t.Errorf("histogram %q not registered", name)
		}
	}

	// A shared registry is adopted, not replaced.
	reg := metrics.NewRegistry()
	reg.Counter("transport_dropped").Inc()
	o2 := New(Options{Registry: reg})
	if o2.Registry != reg {
		t.Fatal("observer did not adopt the shared registry")
	}
	if o2.Registry.Snapshot()["transport_dropped"] != 1 {
		t.Fatal("pre-existing counters lost")
	}
}

// TestObserveCommit checks one finalization feeds all three consumers:
// histogram, tracer, detector.
func TestObserveCommit(t *testing.T) {
	o := New(Options{})
	now := time.Unix(0, 5000)
	o.ObserveCommit(7, types.BlockID{9}, 300*time.Millisecond, now)
	if o.CommitLatency.Count() != 1 {
		t.Error("commit latency not recorded")
	}
	ev := o.Tracer.EventsForRound(7)
	if len(ev) != 1 || ev[0].Stage != StageFinalized || ev[0].TS != 5000 {
		t.Errorf("finalized mark = %+v", ev)
	}
	if o.Detector.EWMA() != 300*time.Millisecond {
		t.Errorf("detector EWMA = %v, want 300ms after first observation", o.Detector.EWMA())
	}

	var nilO *Observer
	nilO.ObserveCommit(7, types.BlockID{}, time.Second, now) // must not panic
	nilO.Collect()
	nilO.OnCollect(func(*Observer) {})
}

// TestCollectHooks checks scrape-time gauge refresh: hooks run on
// Collect in registration order and see the observer.
func TestCollectHooks(t *testing.T) {
	o := New(Options{})
	depth := int64(17)
	o.OnCollect(func(o *Observer) { o.MempoolDepth.Set(depth) })
	o.OnCollect(func(o *Observer) { o.DissemStoreBytes.Set(depth * 2) })
	o.Collect()
	if got := o.MempoolDepth.Load(); got != 17 {
		t.Errorf("mempool depth = %d, want 17", got)
	}
	if got := o.DissemStoreBytes.Load(); got != 34 {
		t.Errorf("dissem store bytes = %d, want 34", got)
	}
	depth = 99
	o.Collect()
	if got := o.MempoolDepth.Load(); got != 99 {
		t.Errorf("gauge not refreshed on second collect: %d", got)
	}
}

// TestSlowRoundDetector checks the flagging contract: nothing flags
// during warmup, a round over k×EWMA flags afterwards with its trace
// spans captured, and ordinary rounds keep the EWMA tracking.
func TestSlowRoundDetector(t *testing.T) {
	tr := NewTracer(64)
	d := NewSlowRoundDetector(3.0, tr)

	// Warmup: even a huge outlier must not flag.
	for i := 0; i < slowWarmup; i++ {
		lat := 100 * time.Millisecond
		if i == 2 {
			lat = 100 * time.Second
		}
		if d.Observe(types.Round(i), lat) {
			t.Fatalf("round %d flagged during warmup", i)
		}
	}
	// Settle the EWMA back near 100ms (the warmup outlier decays by
	// (1-alpha)^n, so give it enough rounds to wash out).
	for i := slowWarmup; i < slowWarmup+200; i++ {
		if d.Observe(types.Round(i), 100*time.Millisecond) {
			t.Fatalf("steady round %d flagged (ewma %v)", i, d.EWMA())
		}
	}
	ewma := d.EWMA()
	if ewma < 90*time.Millisecond || ewma > 110*time.Millisecond {
		t.Fatalf("ewma = %v, want ~100ms", ewma)
	}

	// A 2× round stays under k=3; a 10× round flags.
	if d.Observe(200, 2*ewma) {
		t.Fatal("2x round flagged with k=3")
	}
	slowRound := types.Round(201)
	tr.Mark(slowRound, types.BlockID{1}, StageProposalReceived, time.Unix(0, 1))
	tr.Span(slowRound, types.BlockID{1}, SpanDissemFetch, time.Unix(0, 2), time.Second)
	if !d.Observe(slowRound, 10*ewma) {
		t.Fatal("10x round not flagged")
	}
	slow := d.Slow()
	if len(slow) != 1 {
		t.Fatalf("%d slow rounds retained, want 1", len(slow))
	}
	sr := slow[0]
	if sr.Round != slowRound || sr.Latency != 10*ewma {
		t.Fatalf("slow round = %+v", sr)
	}
	if sr.EWMA <= 0 {
		t.Error("flagged round lost the EWMA it was judged against")
	}
	if len(sr.Events) != 2 {
		t.Errorf("flagged round captured %d trace events, want 2", len(sr.Events))
	}

	// Retention is bounded: flood with slow rounds, keep the newest.
	for i := 0; i < maxSlowRounds+10; i++ {
		d.Observe(types.Round(1000+i), 100*ewma)
		d.Observe(types.Round(2000+i), ewma/2) // pull the EWMA back down
	}
	if got := len(d.Slow()); got > maxSlowRounds {
		t.Fatalf("retained %d slow rounds, cap %d", got, maxSlowRounds)
	}
}

// TestSlowRoundDetectorDefaults checks k and nil handling.
func TestSlowRoundDetectorDefaults(t *testing.T) {
	d := NewSlowRoundDetector(0, nil)
	if d.k != DefaultSlowK {
		t.Fatalf("k = %v, want default %v", d.k, DefaultSlowK)
	}
	var nilD *SlowRoundDetector
	if nilD.Observe(1, time.Second) {
		t.Fatal("nil detector flagged")
	}
	if nilD.EWMA() != 0 || nilD.Slow() != nil {
		t.Fatal("nil detector not inert")
	}
}
