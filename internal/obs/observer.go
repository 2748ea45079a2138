package obs

import (
	"sync"
	"time"

	"banyan/internal/metrics"
	"banyan/internal/types"
)

// Canonical histogram and gauge names. Instruments live in the shared
// metrics.Registry under these names (the Prometheus exporter prefixes
// them with "banyan_" and suffixes histograms with "_seconds").
const (
	HistCommitLatency = "commit_latency"
	HistVerifyTime    = "verify_time"
	HistWALFlush      = "wal_flush"
	HistDissemFetch   = "dissem_fetch"
	HistDeliveryWait  = "delivery_wait"

	// HistPreverifyWait is registered and recorded by nothing. It stays
	// because benchmark/perlayer.go reads it by name; its
	// node.preverify_wait_* figures read 0, as any layer that is off does.
	HistPreverifyWait = "preverify_wait"

	GaugeRound            = "round"
	GaugeEpoch            = "epoch"
	GaugeMempoolDepth     = "mempool_depth"
	GaugeDissemStoreBytes = "dissem_store_bytes"

	// Cumulative counts read from the verification pipeline at scrape
	// time: cache hits and cache misses (= signatures verified).
	GaugeVerifyCacheHits   = "verify_cache_hits"
	GaugeVerifyCacheMisses = "verify_cache_misses"
)

// Observer bundles one replica's observability instruments: the shared
// registry, the lifecycle tracer, the slow-round detector, and hoisted
// pointers to every hot-path histogram and gauge so instrumented code
// pays a field load plus an atomic add per event — never a registry
// lookup (the satellite-1 discipline).
//
// A nil *Observer is the "observability off" state: every method is a
// nil-safe no-op, and the hot paths of core/node/wal skip their
// time.Now() calls entirely behind one branch.
type Observer struct {
	Registry *metrics.Registry
	Tracer   *Tracer
	Detector *SlowRoundDetector

	CommitLatency *metrics.Histogram
	VerifyTime    *metrics.Histogram
	WALFlush      *metrics.Histogram
	DissemFetch   *metrics.Histogram
	DeliveryWait  *metrics.Histogram

	Round            *metrics.Gauge
	Epoch            *metrics.Gauge
	MempoolDepth     *metrics.Gauge
	DissemStoreBytes *metrics.Gauge

	VerifyCacheHits   *metrics.Gauge
	VerifyCacheMisses *metrics.Gauge

	collectMu sync.Mutex
	collect   []func(*Observer)
}

// Options configures New.
type Options struct {
	// Registry to register instruments in; nil creates a private one.
	Registry *metrics.Registry
	// TraceEvents is the tracer ring capacity (0 = DefaultTraceEvents).
	TraceEvents int
}

// New builds an Observer with all instruments registered.
func New(opts Options) *Observer {
	reg := opts.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	o := &Observer{
		Registry:         reg,
		Tracer:           NewTracer(opts.TraceEvents),
		CommitLatency:    reg.Histogram(HistCommitLatency),
		VerifyTime:       reg.Histogram(HistVerifyTime),
		WALFlush:         reg.Histogram(HistWALFlush),
		DissemFetch:      reg.Histogram(HistDissemFetch),
		DeliveryWait:     reg.Histogram(HistDeliveryWait),
		Round:            reg.Gauge(GaugeRound),
		Epoch:            reg.Gauge(GaugeEpoch),
		MempoolDepth:     reg.Gauge(GaugeMempoolDepth),
		DissemStoreBytes: reg.Gauge(GaugeDissemStoreBytes),

		VerifyCacheHits:   reg.Gauge(GaugeVerifyCacheHits),
		VerifyCacheMisses: reg.Gauge(GaugeVerifyCacheMisses),
	}
	o.Detector = NewSlowRoundDetector(DefaultSlowK, o.Tracer)
	return o
}

// OnCollect registers fn to run before every scrape — the hook replicas
// use to refresh pull-style gauges (mempool depth, dissem store bytes)
// from sources that are safe to read from the scrape goroutine.
func (o *Observer) OnCollect(fn func(*Observer)) {
	if o == nil || fn == nil {
		return
	}
	o.collectMu.Lock()
	o.collect = append(o.collect, fn)
	o.collectMu.Unlock()
}

// Collect runs the registered collect hooks.
func (o *Observer) Collect() {
	if o == nil {
		return
	}
	o.collectMu.Lock()
	hooks := make([]func(*Observer), len(o.collect))
	copy(hooks, o.collect)
	o.collectMu.Unlock()
	for _, fn := range hooks {
		fn(o)
	}
}

// ObserveCommit records a finalized round: the commit-latency histogram,
// the finalized lifecycle mark, and the slow-round detector (which
// captures the round's trace spans when flagged).
func (o *Observer) ObserveCommit(round types.Round, block types.BlockID, latency time.Duration, now time.Time) {
	if o == nil {
		return
	}
	o.CommitLatency.Record(latency)
	o.Tracer.Mark(round, block, StageFinalized, now)
	o.Detector.Observe(round, latency)
}

// DefaultSlowK is the slow-round threshold multiplier: a round is
// flagged when its commit latency exceeds k times the EWMA of recent
// commit latencies.
const DefaultSlowK = 3.0

// ewmaAlpha weights the latest observation; ~1/16 gives a window of a
// few dozen rounds.
const ewmaAlpha = 1.0 / 16

// slowWarmup is how many rounds feed the EWMA before flagging begins
// (the first rounds of a run are legitimately slow).
const slowWarmup = 8

// maxSlowRounds bounds the retained flagged-round reports.
const maxSlowRounds = 32

// SlowRound is one flagged round: its latency, the EWMA it was judged
// against, and the trace spans the tracer held for it at flag time.
type SlowRound struct {
	Round   types.Round   `json:"round"`
	Latency time.Duration `json:"latency_ns"`
	EWMA    time.Duration `json:"ewma_ns"`
	Events  []Event       `json:"events,omitempty"`
}

// SlowRoundDetector flags rounds whose commit latency exceeds k×EWMA of
// recent commit latencies and snapshots their trace spans so the cause
// (verify stall, WAL flush, fetch miss) is attributable after the fact.
// Safe for concurrent use; a nil detector is a no-op.
type SlowRoundDetector struct {
	mu     sync.Mutex
	k      float64
	ewma   float64 // ns
	n      int
	tracer *Tracer
	slow   []SlowRound
}

// NewSlowRoundDetector builds a detector with threshold multiplier k
// (DefaultSlowK if k <= 0), capturing spans from tracer when flagging.
func NewSlowRoundDetector(k float64, tracer *Tracer) *SlowRoundDetector {
	if k <= 0 {
		k = DefaultSlowK
	}
	return &SlowRoundDetector{k: k, tracer: tracer}
}

// Observe feeds one round's commit latency; it reports whether the round
// was flagged as slow.
func (d *SlowRoundDetector) Observe(round types.Round, latency time.Duration) bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	ns := float64(latency)
	flagged := false
	if d.n >= slowWarmup && d.ewma > 0 && ns > d.k*d.ewma {
		flagged = true
		sr := SlowRound{Round: round, Latency: latency, EWMA: time.Duration(d.ewma)}
		if len(d.slow) == maxSlowRounds {
			copy(d.slow, d.slow[1:])
			d.slow = d.slow[:maxSlowRounds-1]
		}
		d.slow = append(d.slow, sr)
	}
	if d.n == 0 {
		d.ewma = ns
	} else {
		d.ewma += ewmaAlpha * (ns - d.ewma)
	}
	d.n++
	idx := len(d.slow) - 1
	d.mu.Unlock()
	// Capture spans outside the detector lock: the tracer has its own.
	if flagged && d.tracer != nil {
		events := d.tracer.EventsForRound(round)
		d.mu.Lock()
		if idx >= 0 && idx < len(d.slow) && d.slow[idx].Round == round {
			d.slow[idx].Events = events
		}
		d.mu.Unlock()
	}
	return flagged
}

// EWMA returns the current latency EWMA.
func (d *SlowRoundDetector) EWMA() time.Duration {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return time.Duration(d.ewma)
}

// Slow returns the retained flagged rounds, oldest first.
func (d *SlowRoundDetector) Slow() []SlowRound {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]SlowRound, len(d.slow))
	copy(out, d.slow)
	return out
}
