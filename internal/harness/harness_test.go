package harness

import (
	"testing"
	"time"

	"banyan/internal/obs"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// TestHeadlineShape reproduces the core claim of the evaluation on the
// n=4 four-datacenter topology (Figure 6b): Banyan's fast path finalizes
// proposals faster than ICC, which is faster than HotStuff, with Streamlet
// slowest; and Banyan's finalizations are overwhelmingly fast-path.
func TestHeadlineShape(t *testing.T) {
	topo, err := wan.FourGlobal4()
	if err != nil {
		t.Fatal(err)
	}
	run := func(p Protocol, f, pp int) *Result {
		t.Helper()
		res, err := Run(Config{
			Protocol:  p,
			Params:    ParamsFor(p, 4, f, pp),
			Topology:  topo,
			BlockSize: 1 << 20, // the 1 MB point section 9.3 highlights
			Duration:  60 * time.Second,
			Seed:      7,
		})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		t.Logf("%-10s mean=%s p95=%s tput=%.2f MB/s blocks=%d fast=%d slow=%d",
			p, res.Latency.Mean, res.Latency.P95, res.ThroughputBps/1e6,
			res.BlocksCommitted, res.FastFinal, res.SlowFinal)
		return res
	}

	banyan := run(Banyan, 1, 1)
	iccRes := run(ICC, 1, 0)
	hs := run(HotStuff, 1, 0)
	sl := run(Streamlet, 1, 0)

	if banyan.Latency.Mean >= iccRes.Latency.Mean {
		t.Errorf("Banyan mean latency %v not below ICC %v", banyan.Latency.Mean, iccRes.Latency.Mean)
	}
	if iccRes.Latency.Mean >= hs.Latency.Mean {
		t.Errorf("ICC mean latency %v not below HotStuff %v", iccRes.Latency.Mean, hs.Latency.Mean)
	}
	if hs.Latency.Mean >= sl.Latency.Mean {
		t.Errorf("HotStuff mean latency %v not below Streamlet %v", hs.Latency.Mean, sl.Latency.Mean)
	}
	if banyan.FastFinal < 9*banyan.SlowFinal {
		t.Errorf("fast path underused: fast=%d slow=%d", banyan.FastFinal, banyan.SlowFinal)
	}
	// The paper reports ~30%% improvement over ICC at n=4 (section 9.3):
	// check we are in that regime (at least 20%%).
	improvement := 1 - float64(banyan.Latency.Mean)/float64(iccRes.Latency.Mean)
	if improvement < 0.20 {
		t.Errorf("Banyan improvement over ICC only %.1f%%, expected ~30%%", improvement*100)
	}
}

// TestProtocolRunsPinned pins a short run of each of the five protocols —
// Banyan through the replica stack, the fast-path ablation through the
// same stack, and the three baselines built here — to its latency,
// block, message and byte counts. Any change to how an engine is
// assembled or configured moves one of them. A baseline with
// dissemination is refused: only the Banyan engine has the layer.
func TestProtocolRunsPinned(t *testing.T) {
	topo, err := wan.FourGlobal4()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		proto                     Protocol
		p50, p95                  time.Duration
		blocks, messages, msgByte int64
	}{
		// A fast-finalized round is left through its fast certificate, with
		// no Advance and no unlock proof on the next proposal: 2181 → 1611
		// messages, and p50 116.38 → 114.21 ms, 43 → 44 blocks, as the
		// lighter proposals arrive sooner.
		{Banyan, 114209581, 125222610, 44, 1611, 9900771},
		{BanyanNoFast, 170129544, 172663730, 44, 2904, 10039818},
		{ICC, 171043667, 173404418, 43, 2874, 38335938},
		{HotStuff, 313111099, 358024813, 50, 334, 11065855},
		{Streamlet, 455443274, 503605710, 12, 210, 2770278},
	} {
		res, err := Run(Config{
			Protocol:   want.proto,
			Params:     ParamsFor(want.proto, 4, 1, 1),
			Topology:   topo,
			BlockSize:  64 << 10,
			Duration:   5 * time.Second,
			Seed:       1,
			JitterFrac: 0.05,
		})
		if err != nil {
			t.Fatalf("%s: %v", want.proto, err)
		}
		if res.Latency.P50 != want.p50 || res.Latency.P95 != want.p95 || res.BlocksCommitted != want.blocks ||
			res.Messages != want.messages || res.MessageBytes != want.msgByte {
			t.Errorf("%s: p50 %d p95 %d, %d blocks, %d messages, %d bytes; want %d %d, %d, %d, %d",
				want.proto, res.Latency.P50, res.Latency.P95, res.BlocksCommitted, res.Messages, res.MessageBytes,
				want.p50, want.p95, want.blocks, want.messages, want.msgByte)
		}
		var sum simnet.KindStats
		for _, k := range res.Traffic {
			sum.Messages += k.Messages
			sum.Bytes += k.Bytes
		}
		if sum.Messages != res.Messages || sum.Bytes != res.MessageBytes {
			t.Errorf("%s: traffic by kind sums to %+v, not the totals", want.proto, sum)
		}
	}

	_, err = Run(Config{Protocol: ICC, Params: ParamsFor(ICC, 4, 1, 1), Topology: topo,
		Duration: time.Second, Dissem: true})
	if want := `banyan: Dissem requires a Banyan protocol, got "icc"`; err == nil || err.Error() != want {
		t.Errorf("ICC with Dissem: error %v, want %q", err, want)
	}
}

// TestCrashParityBanyanICC is Figure 6d's claim as an assertion: under
// crash faults Banyan behaves exactly like ICC (no penalty for trying the
// fast path).
func TestCrashParityBanyanICC(t *testing.T) {
	topo, err := wan.FourUS19()
	if err != nil {
		t.Fatal(err)
	}
	run := func(p Protocol) *Result {
		t.Helper()
		res, err := Run(Config{
			Protocol:  p,
			Params:    ParamsFor(p, 19, 6, 1),
			Topology:  topo,
			BlockSize: 100 << 10,
			Duration:  30 * time.Second,
			Delta:     1500 * time.Millisecond, // the paper's 3s timeout
			Seed:      4,
			Crash:     []types.ReplicaID{0, 5},
			// Banyan relays headers, the icc baseline still relays full
			// bodies; parity is a claim about the vote path, so the relay
			// is off on both sides.
			NoForwarding: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	b, i := run(Banyan), run(ICC)
	if b.FastFinal != 0 {
		t.Errorf("fast path fired %d times under crashes that break the fast quorum", b.FastFinal)
	}
	// Same block production cadence.
	if b.BlocksCommitted != i.BlocksCommitted {
		t.Errorf("blocks: banyan %d vs icc %d", b.BlocksCommitted, i.BlocksCommitted)
	}
	// Latency within 3% of each other.
	ratio := float64(b.Latency.Mean) / float64(i.Latency.Mean)
	if ratio < 0.97 || ratio > 1.03 {
		t.Errorf("crash-fault latency parity broken: banyan %v vs icc %v (ratio %.3f)",
			b.Latency.Mean, i.Latency.Mean, ratio)
	}
}

// TestVarianceClaim is Figure 6c's claim as an assertion: the fast path
// does not increase latency variance.
func TestVarianceClaim(t *testing.T) {
	topo, err := wan.FourGlobal4()
	if err != nil {
		t.Fatal(err)
	}
	run := func(p Protocol) *Result {
		t.Helper()
		res, err := Run(Config{
			Protocol:   p,
			Params:     ParamsFor(p, 4, 1, 1),
			Topology:   topo,
			BlockSize:  1 << 20,
			Duration:   45 * time.Second,
			Seed:       6,
			JitterFrac: 0.08,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	b, i := run(Banyan), run(ICC)
	if b.Latency.StdDev > i.Latency.StdDev*3/2 {
		t.Errorf("Banyan stddev %v well above ICC's %v", b.Latency.StdDev, i.Latency.StdDev)
	}
	t.Logf("banyan: %v  icc: %v", b.Latency, i.Latency)
}

// TestNegligibleOverheadClaim is the abstract's "negligible communication
// overhead" claim: Banyan's wire traffic exceeds ICC's by only a few
// percent (fast votes ride on existing messages).
func TestNegligibleOverheadClaim(t *testing.T) {
	topo, err := wan.FourGlobal19()
	if err != nil {
		t.Fatal(err)
	}
	run := func(p Protocol) *Result {
		t.Helper()
		res, err := Run(Config{
			Protocol:  p,
			Params:    ParamsFor(p, 19, 6, 1),
			Topology:  topo,
			BlockSize: 64 << 10,
			Duration:  20 * time.Second,
			Seed:      2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	b, i := run(Banyan), run(ICC)
	perBlockB := float64(b.MessageBytes) / float64(b.BlocksCommitted)
	perBlockI := float64(i.MessageBytes) / float64(i.BlocksCommitted)
	overhead := perBlockB/perBlockI - 1
	if overhead > 0.05 {
		t.Errorf("Banyan wire overhead over ICC = %.1f%%, want < 5%%", overhead*100)
	}
	t.Logf("banyan %.1f KB/block vs icc %.1f KB/block (%+.1f%%)",
		perBlockB/1024, perBlockI/1024, overhead*100)
}

// TestDissemDecouplesProposalWire is the batch-dissemination layer's core
// claim as an assertion: with Dissem on, the proposal's wire size is a
// function of the digest list, not the payload — it stays flat as the
// block size grows 16× — while the committed throughput still reflects the
// full logical payload.
func TestDissemDecouplesProposalWire(t *testing.T) {
	topo, err := wan.FourGlobal4()
	if err != nil {
		t.Fatal(err)
	}
	run := func(blockSize int, dissem bool) *Result {
		t.Helper()
		res, err := Run(Config{
			Protocol:  Banyan,
			Params:    ParamsFor(Banyan, 4, 1, 1),
			Topology:  topo,
			BlockSize: blockSize,
			Duration:  30 * time.Second,
			Seed:      11,
			Dissem:    dissem,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	small := run(64<<10, true)
	large := run(1<<20, true)
	t.Logf("dissem wire: 64KB blocks -> %d B proposals, 1MB blocks -> %d B proposals",
		small.MaxProposalWire, large.MaxProposalWire)
	for _, r := range []*Result{small, large} {
		if r.BlocksCommitted == 0 {
			t.Fatal("dissem run committed no blocks")
		}
		if r.Faults != 0 {
			t.Fatalf("dissem run reported %d safety faults", r.Faults)
		}
	}
	// Constant-within-2KB across the sweep (the bench's acceptance bound).
	if diff := large.MaxProposalWire - small.MaxProposalWire; diff > 2<<10 || diff < -(2<<10) {
		t.Errorf("proposal wire grew %d B across a 16x block-size sweep, want within 2KB", diff)
	}
	// And genuinely decoupled: nowhere near the payload size.
	if large.MaxProposalWire > 64<<10 {
		t.Errorf("1MB-block proposal wire = %d B, expected digests-only (≪ payload)", large.MaxProposalWire)
	}

	// Inline mode at the same size ships the body inside the proposal.
	inline := run(1<<20, false)
	if inline.MaxProposalWire < 1<<20 {
		t.Errorf("inline proposal wire = %d B, expected ≥ payload size", inline.MaxProposalWire)
	}
	// Dissem still commits the full logical payload volume: throughput
	// within 2x of inline on this unconstrained-bandwidth profile.
	if small.ThroughputBps == 0 || large.ThroughputBps < inline.ThroughputBps/2 {
		t.Errorf("dissem throughput %.1f MB/s vs inline %.1f MB/s",
			large.ThroughputBps/1e6, inline.ThroughputBps/1e6)
	}
}

// TestAutoDeltaKeepsSingleProposer: the derived Δ must be generous enough
// that fault-free rounds see exactly one proposer (paper section 9.2's
// tuning requirement).
func TestAutoDeltaKeepsSingleProposer(t *testing.T) {
	for _, mk := range []func() (*wan.Topology, error){wan.FourGlobal19, wan.Global19} {
		topo, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Protocol:   Banyan,
			Params:     ParamsFor(Banyan, 19, 6, 1),
			Topology:   topo,
			BlockSize:  400 << 10,
			Duration:   20 * time.Second,
			Seed:       3,
			JitterFrac: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		// All finalizations fast => only rank-0 blocks ever won a round =>
		// higher-rank proposals never interfered.
		if res.SlowFinal > res.FastFinal/20 {
			t.Errorf("%s: %d slow vs %d fast finalizations — Δ too tight?",
				topo.Name(), res.SlowFinal, res.FastFinal)
		}
	}
}

// TestObsInvisibleToVirtualTime: recording stage histograms and trace
// spans consumes no virtual time, so the same seed produces the same
// virtual-time results with observers on and off — while the observers
// do record.
func TestObsInvisibleToVirtualTime(t *testing.T) {
	topo, err := wan.FourGlobal4()
	if err != nil {
		t.Fatal(err)
	}
	run := func(on bool) *Result {
		t.Helper()
		res, err := Run(Config{
			Protocol:  Banyan,
			Params:    ParamsFor(Banyan, 4, 1, 1),
			Topology:  topo,
			BlockSize: 256 << 10,
			// A constrained uplink, so body transfer shapes the timing.
			BandwidthBps: 25e6,
			Duration:     10 * time.Second,
			Seed:         5,
			Dissem:       true,
			Obs:          on,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := run(false), run(true)
	if off.BlocksCommitted == 0 {
		t.Fatal("no block committed")
	}
	t.Logf("%d blocks, latency %v", off.BlocksCommitted, off.Latency.Mean)
	if off.Latency != on.Latency {
		t.Errorf("latency: off %#v, on %#v", off.Latency, on.Latency)
	}
	if off.ThroughputBps != on.ThroughputBps || off.BlocksCommitted != on.BlocksCommitted {
		t.Errorf("throughput: off %.0f B/s over %d blocks, on %.0f B/s over %d blocks",
			off.ThroughputBps, off.BlocksCommitted, on.ThroughputBps, on.BlocksCommitted)
	}
	if off.Messages != on.Messages || off.MessageBytes != on.MessageBytes {
		t.Errorf("traffic: off %d msgs / %d B, on %d msgs / %d B",
			off.Messages, off.MessageBytes, on.Messages, on.MessageBytes)
	}
	if len(off.Stages) != 0 {
		t.Errorf("stages recorded with observers off: %v", off.Stages)
	}
	for _, name := range []string{obs.HistCommitLatency, obs.HistVerifyTime} {
		if on.Stages[name].Count == 0 {
			t.Errorf("stage %q recorded no samples", name)
		}
	}
}

// TestCountersSummedAcrossReplicas: Result.Counters carries the engine
// counters no figure reads — late traffic dropped for settled rounds,
// signatures verified — summed over the cluster, and a seed
// reproduces them exactly.
func TestCountersSummedAcrossReplicas(t *testing.T) {
	topo, err := wan.FourGlobal4()
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		res, err := Run(Config{
			Protocol:  Banyan,
			Params:    ParamsFor(Banyan, 4, 1, 1),
			Topology:  topo,
			BlockSize: 4 << 10,
			Duration:  3 * time.Second,
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for _, key := range []string{"settled_dropped", "sigs_verified"} {
		if a.Counters[key] == 0 || a.Counters[key] != b.Counters[key] {
			t.Errorf("%s: %d then %d, want the same non-zero count", key, a.Counters[key], b.Counters[key])
		}
	}
	t.Logf("counters: %v", a.Counters)
}
