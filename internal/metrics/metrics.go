// Package metrics provides the measurement pipeline of the evaluation
// and the operational counters of the runtime.
//
// For the evaluation (paper section 9.2): latency Series with summary
// statistics (mean, deviation, percentiles) and byte-Throughput
// accounting, mirroring the paper's definitions — proposal finalization
// time measured at the proposer, committed bytes per second at a
// non-faulty replica.
//
// For the runtime: named atomic Counters collected in a Registry, which
// components share so operational events surface in the same
// map[string]int64 snapshot the engines report instead of disappearing
// silently — e.g. the TCP transport counts outbound-queue drops into
// "transport_dropped", letting a WAL-recovery investigation distinguish
// replay gaps from network loss.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Series accumulates duration samples.
type Series struct {
	samples []time.Duration
	sorted  bool
}

// NewSeries returns an empty series.
func NewSeries() *Series { return &Series{} }

// Add appends a sample.
func (s *Series) Add(d time.Duration) {
	s.samples = append(s.samples, d)
	s.sorted = false
}

// Count returns the number of samples.
func (s *Series) Count() int { return len(s.samples) }

// Mean returns the average sample, or 0 when empty.
func (s *Series) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.samples {
		sum += d
	}
	return sum / time.Duration(len(s.samples))
}

// StdDev returns the population standard deviation, or 0 when empty.
func (s *Series) StdDev() time.Duration {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	mean := float64(s.Mean())
	var acc float64
	for _, d := range s.samples {
		diff := float64(d) - mean
		acc += diff * diff
	}
	return time.Duration(math.Sqrt(acc / float64(n)))
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, or 0 when empty.
func (s *Series) Percentile(p float64) time.Duration {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s.samples[rank-1]
}

// Min returns the smallest sample, or 0 when empty.
func (s *Series) Min() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[0]
}

// Max returns the largest sample, or 0 when empty.
func (s *Series) Max() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.samples[len(s.samples)-1]
}

// Samples returns a copy of the raw samples in insertion order is NOT
// guaranteed after summary calls; callers needing order should keep their
// own log. The copy protects internal state.
func (s *Series) Samples() []time.Duration {
	out := make([]time.Duration, len(s.samples))
	copy(out, s.samples)
	return out
}

func (s *Series) ensureSorted() {
	if !s.sorted {
		sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
		s.sorted = true
	}
}

// Summary is a snapshot of a series' statistics.
type Summary struct {
	Count  int
	Mean   time.Duration
	StdDev time.Duration
	Min    time.Duration
	P50    time.Duration
	P95    time.Duration
	P99    time.Duration
	Max    time.Duration
}

// Summarize computes all summary statistics at once.
func (s *Series) Summarize() Summary {
	return Summary{
		Count:  s.Count(),
		Mean:   s.Mean(),
		StdDev: s.StdDev(),
		Min:    s.Min(),
		P50:    s.Percentile(50),
		P95:    s.Percentile(95),
		P99:    s.Percentile(99),
		Max:    s.Max(),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%s sd=%s p50=%s p95=%s p99=%s max=%s",
		s.Count, ms(s.Mean), ms(s.StdDev), ms(s.P50), ms(s.P95), ms(s.P99), ms(s.Max))
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// Throughput tracks committed bytes and blocks over an observation window.
type Throughput struct {
	Bytes  int64
	Blocks int64
	window time.Duration
}

// NewThroughput creates a throughput accumulator over the given window.
func NewThroughput(window time.Duration) *Throughput {
	return &Throughput{window: window}
}

// Observe adds one committed block of the given payload size.
func (t *Throughput) Observe(payloadBytes int) {
	t.Bytes += int64(payloadBytes)
	t.Blocks++
}

// BytesPerSecond returns committed payload bytes per second of window.
func (t *Throughput) BytesPerSecond() float64 {
	if t.window <= 0 {
		return 0
	}
	return float64(t.Bytes) / t.window.Seconds()
}

// BlockInterval returns the average time between committed blocks (the
// "block interval" of Figure 6d), or 0 with no blocks.
func (t *Throughput) BlockInterval() time.Duration {
	if t.Blocks == 0 {
		return 0
	}
	return time.Duration(int64(t.window) / t.Blocks)
}
