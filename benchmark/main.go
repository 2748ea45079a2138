// Command benchmark is the repository's one repeatable benchmark: four
// fixed workloads over the public entry points (banyan.NewCluster,
// banyan.NewReplica, harness.Run), each reporting the same end-to-end
// metrics from an untraced run and the per-layer metrics from a traced
// run. README.md in this directory defines every workload and metric.
//
//	benchmark -workload <name|all> -seed N -seconds S -trace 0|1 [-repeat R]
//
// A single workload prints its metrics by name with units and ends with
// one JSON line (correct, attempted, failed, metrics); "all" and -repeat
// run each workload in a child process so that no run inherits another's
// heap. The exit code is non-zero when a correctness oracle fails.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the command's flags.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	repeat   int
	outDir   string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for transaction bytes, submit order, keys and the simulation")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 repeats the run with observers on and reports the per-layer metrics")
	fs.IntVar(&o.repeat, "repeat", 0, "run this many untraced sets on consecutive seeds and report the spread")
	fs.StringVar(&o.outDir, "out", "", "directory for traces and scratch files (default: out beside the benchmark's sources)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if o.outDir == "" {
		o.outDir = defaultOutDir()
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("creating the output directory: %w", err)
	}

	switch {
	case o.repeat > 0:
		return runRepeat(o, stdout)
	case o.workload == "all":
		return runAll(o, stdout)
	default:
		w := workloadByName(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		return runOne(w, o, stdout)
	}
}

// defaultOutDir is benchmark/out from the repository root and out from
// the benchmark's own directory.
func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// measured is one in-process run: its result, and for a traced run the
// per-layer report and budget.
type measured struct {
	res      *runResult
	perLayer values
	budget   budget
}

// measure runs workload w once in this process. untraced is the
// end-to-end report a traced run compares its CPU cost against.
func measure(w *workload, o options, traced bool, untraced values) (*measured, error) {
	if w.rt == nil {
		d, err := runSim(o.seed, o.seconds, traced)
		if err != nil {
			return nil, err
		}
		m := &measured{res: d.result()}
		if traced {
			lt, err := timeLayers(layerSpec{n: 19, f: 6, blockBytes: simBlockBytes}, o.seed, o.outDir)
			if err != nil {
				return nil, err
			}
			m.perLayer, m.budget = d.perLayerValues(untraced, lt)
			if _, err := writeTrace(o.outDir, w.name, o.seed, d.phases.spans, nil); err != nil {
				return nil, err
			}
		}
		return m, nil
	}
	d, err := runRealtime(w.name, *w.rt, o.seed, o.seconds, traced, o.outDir)
	if err != nil {
		return nil, err
	}
	m := &measured{res: d.result()}
	if traced {
		lt, err := timeLayers(layerSpec{n: replicas, f: 1, blockBytes: w.rt.blockBytes,
			txSize: w.rt.txSize, tcp: w.rt.tcp, wal: w.rt.wal}, o.seed, o.outDir)
		if err != nil {
			return nil, err
		}
		m.perLayer, m.budget = d.perLayerValues(untraced, lt)
		if _, err := writeTrace(o.outDir, w.name, o.seed, append(d.phases.spans, d.gen.spans...), d.sys); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// runOne runs one workload and prints its report. Untraced, that is the
// end-to-end metrics. Traced, the untraced run happens first in a child
// process (so the traced run starts from a fresh heap, like the untraced
// one did), then the traced run here; the report is the per-layer
// metrics and the budget table.
func runOne(w *workload, o options, stdout io.Writer) error {
	var untraced values
	if o.trace {
		line, out, err := runChild(w.name, o.seed, o.seconds, false, o.outDir, nil)
		if err != nil {
			return fmt.Errorf("untraced reference run: %w\n%s", err, out)
		}
		untraced, err = parseHostBound(out)
		if err != nil {
			return fmt.Errorf("untraced reference run: %w", err)
		}
		for name, m := range line.Metrics {
			untraced[name] = m.Value
		}
		fmt.Fprintf(stdout, "# %s seed %d: untraced reference run\n", w.name, o.seed)
		printMetrics(stdout, w.name, endToEnd, untraced)
		printMetrics(stdout, w.name, hostBound, untraced)
	}
	m, err := measure(w, o, o.trace, untraced)
	if err != nil {
		return err
	}
	res := m.res
	mode, defs, vals := "untraced", endToEnd, res.Values
	if o.trace {
		mode, defs, vals = "traced", perLayer, m.perLayer
	}
	fmt.Fprintf(stdout, "# %s seed %d: %s run, %d s window, %d latency samples, ops_attempted %d, ops_failed %d\n",
		w.name, o.seed, mode, o.seconds, res.Samples, res.Attempted, res.Failed)
	printMetrics(stdout, w.name, defs, vals)
	if !o.trace {
		fmt.Fprintf(stdout, "# %s: follows the host's CPU speed, so reported without a bound:\n", w.name)
		printMetrics(stdout, w.name, hostBound, res.HostBound)
		if err := writeHostBound(stdout, res.HostBound); err != nil {
			return err
		}
	}
	if o.trace {
		m.budget.print(stdout, w.name)
		fmt.Fprintf(stdout, "trace written to %s\n", filepath.Join(o.outDir, "trace-"+w.name+".json"))
	}
	for _, n := range res.Notes {
		fmt.Fprintf(stdout, "# %s: %s\n", w.name, n)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(stdout, "VIOLATION %s: %s\n", w.name, v)
	}
	if err := writeResultLine(stdout, res.line(defs, vals)); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d correctness violations", w.name, len(res.Violations))
	}
	return nil
}

// runChild runs one workload in a child process of this same binary and
// returns its result line and full output, which is also copied to tee
// when that is not nil.
func runChild(name string, seed uint64, seconds int, trace bool, outDir string, tee io.Writer) (resultLine, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, "", fmt.Errorf("locating this binary: %w", err)
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", t, "-out", outDir)
	var out bytes.Buffer
	cmd.Stdout = &out
	if tee != nil {
		cmd.Stdout = io.MultiWriter(&out, tee)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return resultLine{}, out.String(), fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	line, err := parseResultLine(out.String())
	return line, out.String(), err
}

// runAll runs every workload once, each in its own process.
func runAll(o options, stdout io.Writer) error {
	var failed []string
	for _, w := range workloads {
		if _, _, err := runChild(w.name, o.seed, o.seconds, o.trace, o.outDir, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %v", failed)
	}
	return nil
}
