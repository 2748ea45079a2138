package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a named atomic event counter, cheap enough for transport
// hot paths (queue drops, reconnects). The zero value is ready to use.
//
// Hot paths must not call Registry.Counter per event: look the counter up
// once at construction time and cache the *Counter in a struct field, so
// the per-event cost is a single atomic add (see BenchmarkCounterHoisted
// vs BenchmarkCounterRegistryLookup).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Registry is a set of named counters, histograms, and gauges shared
// across a replica's components (transport, node, WAL, engine
// observability), snapshotted into the same map[string]int64 the engines
// report, so operational counters — e.g. the TCP transport's
// outbound-queue drops — surface next to protocol counters instead of
// vanishing silently. Safe for concurrent use.
//
// Lookups and scrapes take a read lock; the write lock is held only on
// first registration of a name, so metric scraping never contends with
// steady-state instrument lookup.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Nil registries return a detached counter (callers need no nil
// checks on optional wiring).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the histogram with the given name, creating it on
// first use. Nil registries return a detached histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// Gauge returns the gauge with the given name, creating it on first use.
// Nil registries return a detached gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Snapshot returns the current value of every counter.
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	return out
}

// Gauges returns the current value of every gauge.
func (r *Registry) Gauges() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		out[name] = g.Load()
	}
	return out
}

// Histograms returns a point-in-time snapshot of every histogram.
func (r *Registry) Histograms() map[string]HistSnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]HistSnapshot, len(r.hists))
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	return out
}
