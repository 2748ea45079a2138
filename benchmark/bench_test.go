package main

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameSyntax = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitSyntax = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesCode checks that BENCHMARK.json and the command name the
// same workloads and metrics, and that every name is well formed.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameSyntax.MatchString(w.name) {
			t.Errorf("workload name %q is malformed", w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: reason must be one line of at most 200 characters", w.name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, i int, name, unit string, def metricDef) {
		if name != def.Name || unit != def.Unit {
			t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the command %s [%s]", kind, i, name, unit, def.Name, def.Unit)
		}
		if !nameSyntax.MatchString(name) {
			t.Errorf("metric name %q is malformed", name)
		}
		if !unitSyntax.MatchString(unit) {
			t.Errorf("metric %s: unit %q is malformed", name, unit)
		}
		if seen[name] {
			t.Errorf("metric name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the command %d", len(spec.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		check("end-to-end", i, m.Name, m.Unit, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		check("per-layer", i, m.Name, m.Unit, perLayer[i])
	}
}

// checkReport checks one run's printed report: a line per metric by name
// with its unit, and a final JSON line holding exactly those metrics.
func checkReport(t *testing.T, workload, output string, defs []metricDef) resultLine {
	t.Helper()
	line, err := parseResultLine(output)
	if err != nil {
		t.Fatal(err)
	}
	if !line.Correct {
		t.Errorf("%s: a correctness oracle failed:\n%s", workload, output)
	}
	if line.Attempted < 1 || line.Failed < 0 || line.Failed > line.Attempted {
		t.Errorf("%s: attempted %d, failed %d", workload, line.Attempted, line.Failed)
	}
	if len(line.Metrics) != len(defs) {
		t.Errorf("%s: result line has %d metrics, want %d", workload, len(line.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := line.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: result line lacks %s", workload, d.Name)
			continue
		}
		if m.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, want %q", workload, d.Name, m.Unit, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s is %v", workload, d.Name, m.Value)
		}
		printed := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(workload) + `\s+` + regexp.QuoteMeta(d.Name) + `\s+\S+ ` + regexp.QuoteMeta(d.Unit) + `$`)
		if !printed.MatchString(output) {
			t.Errorf("%s: no printed line for %s [%s]", workload, d.Name, d.Unit)
		}
	}
	return line
}

// TestMiniatures runs a one-second window of every workload, untraced,
// and checks the report and the oracles. No timing is asserted.
func TestMiniatures(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			err := run([]string{"-workload", w.name, "-seed", "7", "-seconds", "1", "-trace", "0", "-out", t.TempDir()}, &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			line := checkReport(t, w.name, out.String(), endToEnd)
			if hb, err := parseHostBound(out.String()); err != nil {
				t.Error(err)
			} else if hb["runtime.cpu_ms_per_round"] <= 0 || hb["host.verify_us"] <= 0 {
				t.Errorf("%s: host-bound metrics %v, want positive values", w.name, hb)
			}
			for _, d := range endToEnd {
				if line.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: %s is %v, want a positive value", w.name, d.Name, line.Metrics[d.Name].Value)
				}
			}
		})
	}
}

// TestTracedMiniature runs the traced path of the workload that has the
// most layers on and checks that every per-layer metric is reported and
// the trace file is written.
func TestTracedMiniature(t *testing.T) {
	w := workloadByName("delay4_crash_open")
	o := options{workload: w.name, seed: 7, seconds: 1, trace: true, outDir: t.TempDir()}
	m, err := measure(w, o, true, values{"runtime.cpu_ms_per_round": 5})
	if err != nil {
		t.Fatal(err)
	}
	if !m.res.Correct {
		t.Errorf("oracles failed: %v", m.res.Violations)
	}
	for _, d := range perLayer {
		if _, ok := m.perLayer[d.Name]; !ok && !strings.HasPrefix(d.Name, "simnet.") {
			t.Errorf("traced run did not measure %s", d.Name)
		}
	}
	for _, name := range []string{"wal.appends_per_round", "crypto.sign_us", "recovery.restart_ms", "core.rounds_per_s"} {
		if m.perLayer[name] <= 0 {
			t.Errorf("%s is %v on the workload that exercises it", name, m.perLayer[name])
		}
	}
	var table bytes.Buffer
	m.budget.print(&table, w.name)
	if !strings.Contains(table.String(), "unattributed") {
		t.Errorf("budget table lacks the unattributed row:\n%s", table.String())
	}
}

func TestPercentile(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}, {0.1, 1}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 4, 7, 3, 9, 2, 8, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{2, 4, 4, 5, 7})
	if q1 != 3 || q2 != 4 || q3 != 6 {
		t.Errorf("quartiles(2,4,4,5,7) = %v %v %v, want 3 4 6", q1, q2, q3)
	}
}

func TestCPUTimeAdvances(t *testing.T) {
	before := cpuTime()
	x := 0.0
	for start := time.Now(); time.Since(start) < 20*time.Millisecond; {
		x += math.Sqrt(float64(time.Now().Nanosecond()))
	}
	after := cpuTime()
	if after <= before {
		t.Errorf("CPU time did not advance over a busy 20 ms: %v then %v (%v)", before, after, x)
	}
	a := takeSnapshot()
	b := takeSnapshot()
	if b.allocBytes < a.allocBytes || b.cpu < a.cpu || b.at.Before(a.at) {
		t.Errorf("snapshot went backwards: %+v then %+v", a, b)
	}
	if c := costOf([]snapshot{a, b}, []int64{0}, []int64{0}); math.IsNaN(c.cpuMsPerRound) || math.IsNaN(c.allocKBPerRnd) {
		t.Errorf("cost over zero rounds is %+v", c)
	}
}

func TestChainOrderViolations(t *testing.T) {
	pos := map[string]int{"a": 0, "b": 1, "c": 2, "d": 3}
	for _, c := range []struct {
		chain []string
		bad   bool
	}{
		{[]string{"a", "b", "c", "d"}, false},
		{[]string{"a", "c", "d"}, false},           // shorter: a restarted victim
		{[]string{"z", "b", "c", "d", "e"}, false}, // unknown head and tail
		{[]string{"a", "c", "b"}, true},
		{[]string{"a", "x", "b"}, true}, // a fork between two agreed blocks
	} {
		if got := chainOrderViolations(pos, c.chain); (len(got) > 0) != c.bad {
			t.Errorf("chain %v: violations %v, want bad=%v", c.chain, got, c.bad)
		}
	}
}

// swallowSystem accepts every transaction and commits none: a deployment
// whose proposals are all orphaned.
type swallowSystem struct {
	system
	got [][]byte
}

func (s *swallowSystem) submit(_ int, tx []byte) bool {
	s.got = append(s.got, append([]byte(nil), tx...))
	return true
}

// TestResubmission drives the generator's clock by hand: an uncommitted
// transaction is sent again, byte for byte, every resubmitAfter, stays one
// operation timed from its first submission, and fails only after
// maxSubmissions sends.
func TestResubmission(t *testing.T) {
	sys := &swallowSystem{}
	src := newTxSource(7, 64)
	t0 := time.Now()
	g := &generator{
		w: rtWorkload{targets: []int{0}}, sys: sys, src: src,
		win:         window{start: t0, end: t0.Add(time.Hour)},
		outstanding: make(map[uint64]pendingTx), resends: make(map[uint64]int),
		sliceLatMs: make([][]float64, 3600),
	}
	g.submit(0, t0)
	step := resubmitAfter + time.Millisecond
	for k := 1; k < maxSubmissions; k++ {
		g.expire(t0.Add(time.Duration(k) * step))
		if len(sys.got) != k+1 || !bytes.Equal(sys.got[k], sys.got[0]) {
			t.Fatalf("after %d expiries the deployment has %d submissions, the last equal to the first: %v",
				k, len(sys.got), len(sys.got) == k+1 && bytes.Equal(sys.got[k], sys.got[0]))
		}
	}
	if g.attempted != 0 || g.lost != 0 || g.resends[0] != maxSubmissions-1 || g.resubmitted != maxSubmissions-1 {
		t.Fatalf("before the last expiry: attempted %d, lost %d, resends %v", g.attempted, g.lost, g.resends)
	}
	// A commit now resolves the one operation, timed from t0.
	at := t0.Add(time.Duration(maxSubmissions-1)*step + time.Millisecond)
	g.complete(completion{id: 0, at: at})
	if g.attempted != 1 || len(g.latenciesMs) != 1 || g.latenciesMs[0] != durMs(at.Sub(t0)) {
		t.Errorf("commit after resubmission: attempted %d, latencies %v, want one of %v ms", g.attempted, g.latenciesMs, durMs(at.Sub(t0)))
	}
	// Its second copy committing is an extra commit, not an operation.
	g.complete(completion{id: 0, at: at})
	if g.attempted != 1 || g.extraCommits != 1 {
		t.Errorf("duplicate commit: attempted %d, extra commits %d", g.attempted, g.extraCommits)
	}
	// The client's next transaction is never committed: it is given up on
	// after maxSubmissions sends and replaced.
	id := g.src.next - 1
	first := g.outstanding[id].sent
	for k := 1; k <= maxSubmissions; k++ {
		g.expire(first.Add(time.Duration(k) * step))
	}
	if _, still := g.outstanding[id]; still || g.lost != 1 || g.attempted != 2 || len(g.outstanding) != 1 {
		t.Errorf("after %d sends: lost %d, attempted %d, outstanding %v", maxSubmissions, g.lost, g.attempted, g.outstanding)
	}
}
