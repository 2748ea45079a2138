package metrics

import (
	"math"
	"testing"
	"time"
)

func seriesOf(ds ...time.Duration) *Series {
	s := NewSeries()
	for _, d := range ds {
		s.Add(d)
	}
	return s
}

func TestEmptySeries(t *testing.T) {
	s := NewSeries()
	if s.Count() != 0 || s.Mean() != 0 || s.StdDev() != 0 ||
		s.Percentile(50) != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty series statistics must all be zero")
	}
}

func TestSeriesStatistics(t *testing.T) {
	s := seriesOf(10*time.Millisecond, 20*time.Millisecond, 30*time.Millisecond, 40*time.Millisecond)
	if got := s.Mean(); got != 25*time.Millisecond {
		t.Errorf("Mean = %v, want 25ms", got)
	}
	if got := s.Min(); got != 10*time.Millisecond {
		t.Errorf("Min = %v", got)
	}
	if got := s.Max(); got != 40*time.Millisecond {
		t.Errorf("Max = %v", got)
	}
	// Population stddev of {10,20,30,40} = sqrt(125) ms.
	want := time.Duration(math.Sqrt(125) * float64(time.Millisecond))
	if got := s.StdDev(); got < want-time.Microsecond || got > want+time.Microsecond {
		t.Errorf("StdDev = %v, want ~%v", got, want)
	}
}

func TestPercentiles(t *testing.T) {
	s := NewSeries()
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	tests := []struct {
		p    float64
		want time.Duration
	}{
		{50, 50 * time.Millisecond},
		{95, 95 * time.Millisecond},
		{99, 99 * time.Millisecond},
		{100, 100 * time.Millisecond},
		{1, 1 * time.Millisecond},
		{0.5, 1 * time.Millisecond}, // rank clamps to 1
	}
	for _, tt := range tests {
		if got := s.Percentile(tt.p); got != tt.want {
			t.Errorf("P%.1f = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestAddAfterSummaryKeepsCorrectness(t *testing.T) {
	s := seriesOf(3*time.Millisecond, 1*time.Millisecond)
	if s.Min() != time.Millisecond {
		t.Fatal("min wrong")
	}
	s.Add(500 * time.Microsecond) // after a sorted read
	if s.Min() != 500*time.Microsecond {
		t.Fatal("min not updated after post-summary Add")
	}
}

func TestSummarize(t *testing.T) {
	s := seriesOf(1*time.Millisecond, 2*time.Millisecond, 3*time.Millisecond)
	sum := s.Summarize()
	if sum.Count != 3 || sum.Mean != 2*time.Millisecond || sum.Min != time.Millisecond || sum.Max != 3*time.Millisecond {
		t.Fatalf("unexpected summary %+v", sum)
	}
	if sum.String() == "" {
		t.Fatal("summary must render")
	}
}

func TestSamplesCopy(t *testing.T) {
	s := seriesOf(time.Second)
	cp := s.Samples()
	cp[0] = 0
	if s.Max() != time.Second {
		t.Fatal("Samples returned a live reference to internal state")
	}
}

func TestThroughput(t *testing.T) {
	tp := NewThroughput(10 * time.Second)
	for i := 0; i < 20; i++ {
		tp.Observe(1 << 20)
	}
	if got := tp.BytesPerSecond(); got != float64(20<<20)/10 {
		t.Errorf("BytesPerSecond = %f", got)
	}
	if got := tp.BlockInterval(); got != 500*time.Millisecond {
		t.Errorf("BlockInterval = %v", got)
	}
}

func TestThroughputEmpty(t *testing.T) {
	tp := NewThroughput(0)
	if tp.BytesPerSecond() != 0 || tp.BlockInterval() != 0 {
		t.Fatal("zero-window throughput must report zeros")
	}
	tp2 := NewThroughput(time.Second)
	if tp2.BlockInterval() != 0 {
		t.Fatal("no-blocks interval must be zero")
	}
}
