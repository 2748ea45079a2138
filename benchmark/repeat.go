package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark reads back.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// command runs from there or from the benchmark's directory.
func loadSpec() (*benchmarkSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, firstErr
}

// quartiles returns the three cut points of v as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), which
// is what the benchmark driver uses. v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	const n = 4
	m := len(d) + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// runRepeat runs o.repeat untraced sets, set i on seed o.seed+i, each run
// in its own process, then prints per workload and metric the median,
// quartiles and spreads as a Markdown table. It fails when a spread
// (interquartile distance over median) exceeds the metric's bound, or when
// any operation failed: two sets of runs agree on failures only at zero.
func runRepeat(o options, stdout io.Writer) error {
	if o.repeat < 2 {
		return fmt.Errorf("-repeat needs at least 2 sets, got %d", o.repeat)
	}
	spec, err := loadSpec()
	if err != nil {
		return fmt.Errorf("reading the bounds: %w", err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	selected := workloads
	if o.workload != "all" {
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{*w}
	}

	// samples[workload][metric] holds one value per set.
	samples := map[string]map[string][]float64{}
	failed := map[string]int64{}
	failedPerRun := map[string][]int64{}
	attempted := map[string]int64{}
	for i := 0; i < o.repeat; i++ {
		for _, w := range selected {
			seed := o.seed + uint64(i)
			line, out, err := runChild(w.name, seed, o.seconds, false, o.outDir, nil)
			if err != nil {
				return fmt.Errorf("%w\n%s", err, out)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s seed %d done\n", i+1, o.repeat, w.name, seed)
			if samples[w.name] == nil {
				samples[w.name] = map[string][]float64{}
			}
			for name, m := range line.Metrics {
				samples[w.name][name] = append(samples[w.name][name], m.Value)
			}
			failed[w.name] += line.Failed
			failedPerRun[w.name] = append(failedPerRun[w.name], line.Failed)
			attempted[w.name] += line.Attempted
		}
	}

	fmt.Fprintf(stdout, "%d sets, seeds %d..%d, %d s windows. spread = (q3-q1)/median, range = (max-min)/median.\n\n",
		o.repeat, o.seed, o.seed+uint64(o.repeat)-1, o.seconds)
	fmt.Fprintln(stdout, "| workload | metric | unit | median | q1 | q3 | spread | range | bound |")
	fmt.Fprintln(stdout, "|---|---|---|---:|---:|---:|---:|---:|---:|")
	var over []string
	for _, w := range selected {
		for _, def := range endToEnd {
			v := samples[w.name][def.Name]
			q1, q2, q3 := quartiles(v)
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			spread, rng := (q3-q1)/q2, (hi-lo)/q2
			fmt.Fprintf(stdout, "| %s | %s | %s | %.6g | %.6g | %.6g | %.2f%% | %.2f%% | %.0f%% |\n",
				w.name, def.Name, def.Unit, q2, q1, q3, 100*spread, 100*rng, 100*bounds[def.Name])
			if spread > bounds[def.Name] {
				over = append(over, fmt.Sprintf("%s %s: spread %.2f%% over bound %.0f%%",
					w.name, def.Name, 100*spread, 100*bounds[def.Name]))
			}
		}
	}
	fmt.Fprintln(stdout, "\nEvery run, in seed order:")
	fmt.Fprintln(stdout, "\n| workload | metric | values |")
	fmt.Fprintln(stdout, "|---|---|---|")
	for _, w := range selected {
		for _, def := range endToEnd {
			fmt.Fprintf(stdout, "| %s | %s |", w.name, def.Name)
			for _, x := range samples[w.name][def.Name] {
				fmt.Fprintf(stdout, " %.5g", x)
			}
			fmt.Fprintln(stdout, " |")
		}
		fmt.Fprintf(stdout, "| %s | ops_failed |", w.name)
		for _, x := range failedPerRun[w.name] {
			fmt.Fprintf(stdout, " %d", x)
		}
		fmt.Fprintln(stdout, " |")
	}
	fmt.Fprintln(stdout)
	for _, w := range selected {
		fmt.Fprintf(stdout, "%s: ops_failed %d of ops_attempted %d over all sets\n", w.name, failed[w.name], attempted[w.name])
		if failed[w.name] > 0 {
			over = append(over, fmt.Sprintf("%s: %d operations failed", w.name, failed[w.name]))
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("not repeatable: %v", over)
	}
	return nil
}
