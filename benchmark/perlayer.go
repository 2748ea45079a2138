package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"banyan/internal/metrics"
	"banyan/internal/obs"
	"banyan/internal/types"
)

// mergedHistograms folds every replica's stage histograms into one
// snapshot per stage name.
func mergedHistograms(sys system) map[string]metrics.HistSnapshot {
	merged := map[string]metrics.HistSnapshot{}
	for i := 0; i < replicas; i++ {
		o := sys.observer(i)
		if o == nil {
			continue
		}
		for name, h := range o.Registry.Histograms() {
			s := merged[name]
			s.Merge(h)
			merged[name] = s
		}
	}
	return merged
}

// sum adds one counter over all replicas.
func sum(counters []map[string]int64, name string) float64 {
	var total int64
	for _, c := range counters {
		total += c[name]
	}
	return float64(total)
}

// perLayerValues derives the traced report of a real-time run. untraced
// is the end-to-end report of the untraced run of the same seed.
func (d *rtDetail) perLayerValues(untraced values, lt layerTimings) (values, budget) {
	sortedCopy := func(v []float64) []float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		return s
	}
	hists := mergedHistograms(d.sys)
	quantile := func(name string, q float64) time.Duration { return hists[name].Quantile(q) }
	us := func(t time.Duration) float64 { return float64(t.Nanoseconds()) / 1e3 }

	// Counters cover each replica's whole life, so ratios use the rounds
	// the observer started over the same span.
	life := float64(d.counters[0]["rounds"])
	if life < 1 {
		life = 1
	}
	perRound := func(name string) float64 { return sum(d.counters, name) / life }

	v := values{
		"client.commit_latency_p99_ms": percentile(d.gen.latenciesMs, 99),
		"client.tx_resubmitted":        float64(d.gen.resubmitted),
		"client.tx_lost":               float64(d.gen.lost),
		"client.tx_rejected":           float64(d.gen.rejected),
		"client.gen_lag_p99_ms":        percentile(sortedCopy(d.gen.lagsMs), 99),
		"setup.construct_ms":           d.constructMs,
		"setup.first_commit_ms":        d.firstCommMs,

		"core.rounds_per_s":           float64(d.rd.rounds) / d.cost.seconds,
		"core.fast_path_ratio":        float64(d.rd.fast) / float64(max(d.rd.rounds, 1)),
		"core.final_indirect":         float64(d.rd.indirect),
		"core.relays_per_round":       perRound("relays"),
		"core.votes_sent_per_round":   perRound("votes_sent"),
		"core.resends":                sum(d.counters, "resends"),
		"core.proposal_commit_p50_ms": durMs(quantile(obs.HistCommitLatency, 0.50)),
		"core.proposal_commit_p99_ms": durMs(quantile(obs.HistCommitLatency, 0.99)),

		"node.preverify_wait_p50_us": us(quantile(obs.HistPreverifyWait, 0.50)),
		"node.preverify_wait_p99_us": us(quantile(obs.HistPreverifyWait, 0.99)),
		"crypto.verify_time_p50_us":  us(quantile(obs.HistVerifyTime, 0.50)),

		"mempool.submit_ns": median(d.gen.submitNs),
		"tcp.dropped":       sum(d.counters, "transport_dropped"),

		"wal.flush_p50_us":      us(quantile(obs.HistWALFlush, 0.50)),
		"wal.flush_p99_us":      us(quantile(obs.HistWALFlush, 0.99)),
		"wal.appends_per_round": perRound("wal_appends"),
		"wal.syncs_per_round":   perRound("wal_syncs"),

		"dissem.fetch_p50_ms":         durMs(quantile(obs.HistDissemFetch, 0.50)),
		"dissem.fetches":              sum(d.counters, "dissemFetches"),
		"dissem.fetch_retries":        sum(d.counters, "dissemFetchRetries"),
		"dissem.delivery_wait_p50_ms": durMs(quantile(obs.HistDeliveryWait, 0.50)),
		"dissem.delivery_wait_p99_ms": durMs(quantile(obs.HistDeliveryWait, 0.99)),
		"dissem.store_mb_max":         d.storeMaxMB,

		"traced.commit_latency_p50_ms": d.slicePercentile(50),
		"obs.overhead_pct":             overheadPct(untraced, d.cost.cpuMsPerRound),
	}
	if d.w.victim >= 0 {
		v["recovery.restart_ms"] = d.restartMs
		v["recovery.catchup_s"] = d.catchupS
		v["recovery.wal_replayed_records"] = float64(d.counters[d.w.victim]["wal_replayed_records"])
		v["recovery.statesync_fetches"] = float64(d.counters[d.w.victim]["statesync_fetches"])
	}
	d.cost.fill(v)
	lt.fill(v)

	// Budget: calls per round from the replicas' counters times the unit
	// costs. A signature is made once and checked by every other live
	// replica (certificates then hit the verified-signature cache).
	live := replicas
	if d.w.victim >= 0 {
		live--
	}
	signs := perRound("proposals") + perRound("votes_sent")
	b := budget{cpuMsPerRound: d.cost.cpuMsPerRound}
	b.add("crypto.sign", signs, lt.signUs)
	b.add("crypto.verify", signs*float64(live-1), lt.verifyUs)
	b.add("mempool.submit", float64(d.gen.attempted)/float64(max(d.rd.rounds, 1)), v["mempool.submit_ns"]/1e3)
	b.add("mempool.next_payload", perRound("proposals"), lt.nextPayloadUs)
	b.add("mempool.decode_batch", float64(len(d.sys.commits())), lt.decodeBatchUs)
	b.add("types.payload_hash", float64(live), lt.payloadHashUs)
	if d.w.tcp {
		// Only sockets move frames; the hub hands over pointers. Every
		// replica that relays a proposal broadcasts the whole block again.
		// The unit includes encode, socket writes, reads and decodes.
		b.add("tcp.broadcast_cpu", perRound("proposals")+perRound("relays"), lt.broadcastCPUUs)
	}
	if d.w.wal {
		b.add("wal.append", perRound("wal_appends"), lt.walAppendUs)
	}
	v["budget.unattributed_pct"] = b.unattributedPct()
	return v, b
}

// traceFile is what a traced run leaves in the output directory.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// BenchSpans are the benchmark's own spans: run phases, and per
	// transaction a client.tx span with its mempool.submit child.
	BenchSpans []span `json:"bench_spans"`
	// Replicas holds each replica's obs tracer dump (Chrome trace JSON),
	// where the deployment exposes its observers.
	Replicas []json.RawMessage `json:"replicas,omitempty"`
}

// writeTrace writes the run's spans to <outDir>/trace-<workload>.json.
func writeTrace(outDir, workload string, seed uint64, spans []span, sys system) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed, BenchSpans: spans}
	if sys != nil {
		for i := 0; i < replicas; i++ {
			o := sys.observer(i)
			if o == nil {
				continue
			}
			var buf bytes.Buffer
			if err := o.Tracer.WriteChromeTrace(&buf, types.ReplicaID(i)); err != nil {
				return "", fmt.Errorf("dumping replica %d's trace: %w", i, err)
			}
			tf.Replicas = append(tf.Replicas, json.RawMessage(bytes.TrimSpace(buf.Bytes())))
		}
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", fmt.Errorf("encoding the trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing the trace: %w", err)
	}
	return path, nil
}
