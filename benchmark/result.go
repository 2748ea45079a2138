package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names and units, and bench_test.go checks that the two agree.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics of an untraced run, in print order. Every
// workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"commit_latency_p50_ms", "ms"},
	{"commit_latency_p95_ms", "ms"},
	{"committed_mb_per_s", "MB/s"},
	{"alloc_kb_per_round", "KB"},
	{"live_heap_mb", "MB"},
}

// hostBound are measured by every run but follow the host's CPU speed,
// which on the reference box wanders by a quarter over seconds to
// minutes; no bound on them would hold. An untraced run prints them
// beside the end-to-end metrics, a traced run reports them per layer.
var hostBound = []metricDef{
	{"runtime.cpu_ms_per_round", "ms"},
	{"host.verify_us", "us"},
}

// perLayer are the metrics of a traced run, grouped by the module that
// produces them. A layer that is off in a workload reports 0.
var perLayer = []metricDef{
	{"client.commit_latency_p99_ms", "ms"},
	{"client.tx_resubmitted", "count"},
	{"client.tx_lost", "count"},
	{"client.tx_rejected", "count"},
	{"client.gen_lag_p99_ms", "ms"},
	{"setup.construct_ms", "ms"},
	{"setup.first_commit_ms", "ms"},

	{"core.rounds_per_s", "1/s"},
	{"core.fast_path_ratio", "ratio"},
	{"core.final_indirect", "count"},
	{"core.relays_per_round", "count"},
	{"core.votes_sent_per_round", "count"},
	{"core.resends", "count"},
	{"core.proposal_commit_p50_ms", "ms"},
	{"core.proposal_commit_p99_ms", "ms"},

	{"node.preverify_wait_p50_us", "us"},
	{"node.preverify_wait_p99_us", "us"},
	{"crypto.verify_time_p50_us", "us"},
	{"crypto.sign_us", "us"},
	{"crypto.verify_us", "us"},
	{"crypto.verify_cert_us", "us"},

	{"types.encode_proposal_us", "us"},
	{"types.decode_proposal_us", "us"},
	{"types.encode_vote_ns", "ns"},
	{"types.payload_hash_us", "us"},
	{"mempool.submit_ns", "ns"},
	{"mempool.next_payload_us", "us"},
	{"mempool.decode_batch_us", "us"},
	{"tcp.broadcast_us", "us"},
	{"tcp.broadcast_cpu_us", "us"},
	{"tcp.dropped", "count"},

	{"wal.flush_p50_us", "us"},
	{"wal.flush_p99_us", "us"},
	{"wal.appends_per_round", "count"},
	{"wal.syncs_per_round", "count"},
	{"wal.append_us", "us"},
	{"dissem.fetch_p50_ms", "ms"},
	{"dissem.fetches", "count"},
	{"dissem.fetch_retries", "count"},
	{"dissem.delivery_wait_p50_ms", "ms"},
	{"dissem.delivery_wait_p99_ms", "ms"},
	{"dissem.store_mb_max", "MB"},

	{"recovery.restart_ms", "ms"},
	{"recovery.catchup_s", "s"},
	{"recovery.wal_replayed_records", "count"},
	{"recovery.statesync_fetches", "count"},

	{"simnet.messages_per_round", "count"},
	{"simnet.bytes_per_round", "B"},

	{"runtime.cpu_ms_per_round", "ms"},
	{"runtime.allocs_per_round", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.cpu_util_cores", "cores"},
	{"runtime.heap_sys_mb", "MB"},
	{"host.verify_us", "us"},

	{"traced.commit_latency_p50_ms", "ms"},
	{"obs.overhead_pct", "%"},
	{"budget.unattributed_pct", "%"},
}

// values maps metric name to measured value.
type values map[string]float64

// runResult is the outcome of one run of one workload.
type runResult struct {
	Correct   bool
	Attempted int64
	Failed    int64
	// Samples is the number of latency samples behind the percentiles.
	Samples int
	Values  values
	// HostBound holds the hostBound metrics of this run.
	HostBound values
	// Violations lists every correctness oracle that failed.
	Violations []string
	// Notes explain failed operations; they do not make a run incorrect.
	Notes []string
}

// printMetrics writes the named metrics of v, one per line with its unit.
func printMetrics(w io.Writer, workload string, defs []metricDef, v values) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-20s %-32s %16.6g %s\n", workload, d.Name, v[d.Name], d.Unit)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the run's last line of output: the contract the
// benchmark driver parses.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// line reports the metrics defs, taken from v.
func (r *runResult) line(defs []metricDef, v values) resultLine {
	out := resultLine{
		Correct:   r.Correct,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.Name] = jsonMetric{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

func writeResultLine(w io.Writer, l resultLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// parseResultLine reads the last non-empty line of a run's output.
func parseResultLine(output string) (resultLine, error) {
	lines := strings.Split(strings.TrimRight(output, "\n"), "\n")
	var l resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
		return l, fmt.Errorf("parsing result line %q: %w", lines[len(lines)-1], err)
	}
	return l, nil
}

// hostBoundPrefix opens the line on which an untraced run repeats its
// hostBound metrics in machine-readable form, for the traced run that
// spawned it as its reference.
const hostBoundPrefix = "#host-bound "

func writeHostBound(w io.Writer, v values) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encoding host-bound metrics: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s%s\n", hostBoundPrefix, b)
	return err
}

// parseHostBound finds the hostBound line in a run's output.
func parseHostBound(output string) (values, error) {
	for _, line := range strings.Split(output, "\n") {
		if rest, ok := strings.CutPrefix(line, hostBoundPrefix); ok {
			v := values{}
			if err := json.Unmarshal([]byte(rest), &v); err != nil {
				return nil, fmt.Errorf("parsing %q: %w", line, err)
			}
			return v, nil
		}
	}
	return nil, fmt.Errorf("no %q line in the run's output", strings.TrimSpace(hostBoundPrefix))
}
