package banyan

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (section 9), plus the ablations of DESIGN.md section 6. Each
// benchmark replays the corresponding experiment on the deterministic WAN
// simulator at reduced virtual duration and reports the quantities the
// paper plots as custom metrics:
//
//	latency-ms     mean proposal finalization time at the proposer
//	p95-ms         95th-percentile latency
//	tput-MBps      committed payload megabytes per second
//	fast-share     fraction of explicit finalizations via the fast path
//
// cmd/bench runs the same experiments at paper-scale duration with the
// paper's reported numbers inlined; EXPERIMENTS.md records a full run.
//
// Wall-clock note: ns/op here measures simulator speed, not protocol
// latency — the protocol quantities are the reported custom metrics.

import (
	"testing"
	"time"

	"banyan/internal/crypto"
	"banyan/internal/harness"
	"banyan/internal/latencymodel"
	"banyan/internal/types"
	"banyan/internal/wan"
)

const benchDuration = 15 * time.Second // virtual seconds per run

func report(b *testing.B, res *harness.Result) {
	b.Helper()
	b.ReportMetric(float64(res.Latency.Mean)/1e6, "latency-ms")
	b.ReportMetric(float64(res.Latency.P95)/1e6, "p95-ms")
	b.ReportMetric(res.ThroughputBps/1e6, "tput-MBps")
	explicit := res.FastFinal + res.SlowFinal
	if explicit > 0 {
		b.ReportMetric(float64(res.FastFinal)/float64(explicit), "fast-share")
	}
}

func runBench(b *testing.B, cfg harness.Config) {
	b.Helper()
	if cfg.Duration == 0 {
		cfg.Duration = benchDuration
	}
	var last *harness.Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := harness.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	report(b, last)
}

// compared marks a run as one side of a Banyan-vs-ICC figure or table.
// Both sides run without the line-35 relay: Banyan relays headers where
// the icc baseline relays whole block bodies, a difference in receiver
// load the paper does not claim — its protocols forward identically — so
// the comparison leaves it out. BenchmarkAblationForwarding measures the
// relay on its own.
func compared(cfg harness.Config) harness.Config {
	cfg.NoForwarding = true
	return cfg
}

func topo(b *testing.B, f func() (*wan.Topology, error)) *wan.Topology {
	b.Helper()
	t, err := f()
	if err != nil {
		b.Fatal(err)
	}
	return t
}

// BenchmarkTable1 evaluates the analytic Table 1 model (the rendering is
// what cmd/bench -exp table1 prints) and measures the implemented rows'
// finalization latency in δ units on a uniform topology.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = latencymodel.Render(6, 1)
	}
	const oneWay = 50 * time.Millisecond
	u := wan.Uniform(4, oneWay)
	for _, proto := range harness.Protocols() {
		res, err := harness.Run(compared(harness.Config{
			Protocol:    proto,
			Params:      harness.ParamsFor(proto, 4, 1, 1),
			Topology:    u,
			BlockSize:   1 << 10,
			Duration:    benchDuration,
			Seed:        1,
			ProcRateBps: -1,
			ProcFixed:   -1,
		}))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Latency.Mean)/float64(oneWay), string(proto)+"-steps")
	}
}

// BenchmarkFigure1 measures the communication steps to finality: Banyan 2,
// ICC 3 (Figure 1's claim), on a uniform topology where latency/δ equals
// the step count.
func BenchmarkFigure1(b *testing.B) {
	const oneWay = 50 * time.Millisecond
	u := wan.Uniform(4, oneWay)
	for _, proto := range []harness.Protocol{harness.Banyan, harness.ICC} {
		b.Run(string(proto), func(b *testing.B) {
			var last *harness.Result
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(compared(harness.Config{
					Protocol:    proto,
					Params:      harness.ParamsFor(proto, 4, 1, 1),
					Topology:    u,
					BlockSize:   1 << 10,
					Duration:    benchDuration,
					Seed:        uint64(i + 1),
					ProcRateBps: -1,
					ProcFixed:   -1,
				}))
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Latency.Mean)/float64(oneWay), "steps")
			report(b, last)
		})
	}
}

// BenchmarkFigure2 shows the integrated dual mode: with the fast path
// unable to fire (two crashed replicas at p=1), Banyan's latency equals
// ICC's — no switching cost.
func BenchmarkFigure2(b *testing.B) {
	t := topo(b, wan.FourGlobal19)
	crash := []harness.CrashSpec{{Replica: 17}, {Replica: 18}}
	for _, proto := range []harness.Protocol{harness.Banyan, harness.ICC} {
		b.Run(string(proto)+"-fastpath-dark", func(b *testing.B) {
			runBench(b, compared(harness.Config{
				Protocol:  proto,
				Params:    harness.ParamsFor(proto, 19, 6, 1),
				Topology:  t,
				BlockSize: 400 << 10,
				Crash:     crash,
			}))
		})
	}
}

// BenchmarkFigure6a is the primary testbed: n=19 across 4 global
// datacenters, block-size sweep, all protocol configurations.
func BenchmarkFigure6a(b *testing.B) {
	t := topo(b, wan.FourGlobal19)
	cases := []struct {
		name  string
		proto harness.Protocol
		f, p  int
	}{
		{"banyan-p1", harness.Banyan, 6, 1},
		{"banyan-p4", harness.Banyan, 4, 4},
		{"icc", harness.ICC, 6, 0},
		{"hotstuff", harness.HotStuff, 6, 0},
		{"streamlet", harness.Streamlet, 6, 0},
	}
	for _, size := range []int{100 << 10, 400 << 10, 1600 << 10} {
		for _, tc := range cases {
			b.Run(tc.name+"/"+sizeName(size), func(b *testing.B) {
				runBench(b, compared(harness.Config{
					Protocol:  tc.proto,
					Params:    harness.ParamsFor(tc.proto, 19, tc.f, tc.p),
					Topology:  t,
					BlockSize: size,
				}))
			})
		}
	}
}

// BenchmarkFigure6b is the small-cluster testbed: n=4, one replica per
// global datacenter.
func BenchmarkFigure6b(b *testing.B) {
	t := topo(b, wan.FourGlobal4)
	cases := []struct {
		name  string
		proto harness.Protocol
	}{
		{"banyan-p1", harness.Banyan},
		{"icc", harness.ICC},
		{"hotstuff", harness.HotStuff},
		{"streamlet", harness.Streamlet},
	}
	for _, size := range []int{500 << 10, 1 << 20, 2 << 20} {
		for _, tc := range cases {
			b.Run(tc.name+"/"+sizeName(size), func(b *testing.B) {
				runBench(b, compared(harness.Config{
					Protocol:  tc.proto,
					Params:    harness.ParamsFor(tc.proto, 4, 1, 1),
					Topology:  t,
					BlockSize: size,
				}))
			})
		}
	}
}

// BenchmarkFigure6c measures latency variance (n=4, 1MB): Banyan's fast
// path must not be more variable than ICC.
func BenchmarkFigure6c(b *testing.B) {
	t := topo(b, wan.FourGlobal4)
	for _, proto := range []harness.Protocol{harness.Banyan, harness.ICC} {
		b.Run(string(proto), func(b *testing.B) {
			var last *harness.Result
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(compared(harness.Config{
					Protocol:   proto,
					Params:     harness.ParamsFor(proto, 4, 1, 1),
					Topology:   t,
					BlockSize:  1 << 20,
					Duration:   benchDuration,
					Seed:       uint64(i + 1),
					JitterFrac: 0.08,
				}))
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			report(b, last)
			b.ReportMetric(float64(last.Latency.StdDev)/1e6, "stddev-ms")
			b.ReportMetric(float64(last.Latency.P99)/1e6, "p99-ms")
		})
	}
}

// BenchmarkFigure6d is the crash-fault experiment: n=19 across 4 US
// datacenters, 3-second timeout (Δ=1.5s), crashes spread over DCs.
func BenchmarkFigure6d(b *testing.B) {
	t := topo(b, wan.FourUS19)
	spread := []types.ReplicaID{0, 5, 10, 15, 1, 6}
	for _, crashes := range []int{0, 2, 4, 6} {
		var specs []harness.CrashSpec
		for i := 0; i < crashes; i++ {
			specs = append(specs, harness.CrashSpec{Replica: spread[i]})
		}
		for _, proto := range []harness.Protocol{harness.Banyan, harness.ICC} {
			b.Run(benchName(string(proto), crashes), func(b *testing.B) {
				var last *harness.Result
				for i := 0; i < b.N; i++ {
					res, err := harness.Run(compared(harness.Config{
						Protocol:  proto,
						Params:    harness.ParamsFor(proto, 19, 6, 1),
						Topology:  t,
						BlockSize: 400 << 10,
						Duration:  30 * time.Second, // timeouts need longer runs
						Delta:     1500 * time.Millisecond,
						Seed:      uint64(i + 1),
						Crash:     specs,
					}))
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				report(b, last)
				b.ReportMetric(float64(last.BlockInterval)/1e6, "blkint-ms")
			})
		}
	}
}

// BenchmarkFigure6e is the worldwide testbed: one replica in each of 19
// regions, 1MB blocks.
func BenchmarkFigure6e(b *testing.B) {
	t := topo(b, wan.Global19)
	cases := []struct {
		name  string
		proto harness.Protocol
		f, p  int
	}{
		{"banyan-f6-p1", harness.Banyan, 6, 1},
		{"banyan-f4-p4", harness.Banyan, 4, 4},
		{"icc", harness.ICC, 6, 0},
		{"hotstuff", harness.HotStuff, 6, 0},
		{"streamlet", harness.Streamlet, 6, 0},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			runBench(b, compared(harness.Config{
				Protocol:  tc.proto,
				Params:    harness.ParamsFor(tc.proto, 19, tc.f, tc.p),
				Topology:  t,
				BlockSize: 1 << 20,
			}))
		})
	}
}

// BenchmarkAblationFastPath isolates the fast path: full Banyan vs Banyan
// with the fast path disabled vs ICC (DESIGN.md section 6).
func BenchmarkAblationFastPath(b *testing.B) {
	t := topo(b, wan.FourGlobal4)
	for _, tc := range []struct {
		name  string
		proto harness.Protocol
	}{
		{"banyan", harness.Banyan},
		{"banyan-nofast", harness.BanyanNoFast},
		{"icc", harness.ICC},
	} {
		b.Run(tc.name, func(b *testing.B) {
			runBench(b, compared(harness.Config{
				Protocol:  tc.proto,
				Params:    harness.ParamsFor(tc.proto, 4, 1, 1),
				Topology:  t,
				BlockSize: 1 << 20,
			}))
		})
	}
}

// BenchmarkAblationP sweeps the fast-path parameter p at n=19.
func BenchmarkAblationP(b *testing.B) {
	t := topo(b, wan.FourGlobal19)
	for _, pp := range []struct{ f, p int }{{6, 1}, {5, 2}, {4, 4}} {
		b.Run(benchName("p", pp.p), func(b *testing.B) {
			runBench(b, harness.Config{
				Protocol:  harness.Banyan,
				Params:    types.Params{N: 19, F: pp.f, P: pp.p},
				Topology:  t,
				BlockSize: 400 << 10,
			})
		})
	}
}

// BenchmarkAblationForwarding measures the tip-forwarding relay
// (Algorithm 1 line 35, the Bamboo fix of section 9.1).
func BenchmarkAblationForwarding(b *testing.B) {
	t := topo(b, wan.FourGlobal19)
	for _, off := range []bool{false, true} {
		name := "forwarding-on"
		if off {
			name = "forwarding-off"
		}
		b.Run(name, func(b *testing.B) {
			runBench(b, harness.Config{
				Protocol:     harness.Banyan,
				Params:       types.Params{N: 19, F: 6, P: 1},
				Topology:     t,
				BlockSize:    400 << 10,
				NoForwarding: off,
			})
		})
	}
}

// BenchmarkAblationGeography compares quorum geographies: the fast path
// gains most when a whole datacenter is the outlier (paper section 9.3's
// explanation of the p=4 result).
func BenchmarkAblationGeography(b *testing.B) {
	cases := []struct {
		name string
		dcs  []string
	}{
		{"spread", []string{"us-east-1", "us-west-2", "eu-central-1", "ap-northeast-1"}},
		{"colocated-outlier", []string{"us-east-1", "us-east-2", "ca-central-1", "ap-southeast-2"}},
		{"regional", []string{"us-east-1", "us-east-2", "us-west-1", "us-west-2"}},
	}
	for _, tc := range cases {
		t, err := wan.Colocated("geo-"+tc.name, tc.dcs, []int{5, 5, 5, 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, proto := range []harness.Protocol{harness.Banyan, harness.ICC} {
			b.Run(tc.name+"/"+string(proto), func(b *testing.B) {
				f, p := 4, 4
				if proto == harness.ICC {
					f, p = 6, 0
				}
				runBench(b, compared(harness.Config{
					Protocol:  proto,
					Params:    harness.ParamsFor(proto, 19, f, p),
					Topology:  t,
					BlockSize: 400 << 10,
				}))
			})
		}
	}
}

// BenchmarkEngineThroughput measures raw engine speed (events/second in
// the simulator) — the cost of the consensus logic itself, without any
// simulated network delay.
func BenchmarkEngineThroughput(b *testing.B) {
	u := wan.Uniform(4, 100*time.Microsecond)
	for _, proto := range harness.Protocols() {
		b.Run(string(proto), func(b *testing.B) {
			var blocks int64
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(harness.Config{
					Protocol:  proto,
					Params:    harness.ParamsFor(proto, 4, 1, 1),
					Topology:  u,
					BlockSize: 1 << 10,
					Duration:  5 * time.Second,
					Seed:      uint64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				blocks += res.BlocksCommitted
			}
			b.ReportMetric(float64(blocks)/float64(b.N), "blocks-per-5s")
		})
	}
}

// ---------------------------------------------------------------------------
// Signature-verification pipeline benchmarks: the sequential baseline
// (crypto.VerifyCert, one ed25519 operation per signature per delivery)
// against the batched pipeline (crypto.Verifier: worker pool + verified-
// signature cache). Two workloads per cluster size:
//
//   - gossip: a round's notarization certificate delivered 3 times — the
//     original broadcast, a tip-forwarding relay, and the Advance all carry
//     the same quorum of signatures. This is what the engine's ingestion
//     path actually sees; the cache collapses deliveries 2 and 3.
//   - cold: every signature seen exactly once (worst case for the cache;
//     the worker pool is the only lever, so on a single-core host this
//     pair measures the pipeline's overhead).
//
// The batched side builds a fresh Verifier every iteration, so cache state
// never carries across iterations: each measurement is one cold delivery
// plus two warm ones, exactly the per-round cost.

const gossipRedundancy = 3

// verifyFixture is a keyring plus one quorum-sized notarization
// certificate, the unit of verification work per round.
type verifyFixture struct {
	keyring *crypto.Keyring
	cert    *types.Certificate
	quorum  int
}

func newVerifyFixture(b *testing.B, n int) *verifyFixture {
	b.Helper()
	params := types.Params{N: n, F: (n - 1) / 3, P: 1}
	quorum := params.NotarizationQuorum()
	keyring, signers := crypto.GenerateCluster(crypto.Ed25519(), n, 1)
	var block types.BlockID
	block[0] = 7
	votes := make([]types.Vote, quorum)
	for i := range votes {
		votes[i] = signers[i].SignVote(types.VoteNotarize, 1, block)
	}
	cert, err := types.NewCertificate(types.CertNotarization, 1, block, votes)
	if err != nil {
		b.Fatal(err)
	}
	return &verifyFixture{keyring: keyring, cert: cert, quorum: quorum}
}

var verifySizes = []int{16, 64, 128}

// BenchmarkVerifyGossipSequential is the baseline for the acceptance
// comparison: every delivery of a round's certificate re-verifies every
// signature.
func BenchmarkVerifyGossipSequential(b *testing.B) {
	for _, n := range verifySizes {
		b.Run(benchName("n", n), func(b *testing.B) {
			fx := newVerifyFixture(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for d := 0; d < gossipRedundancy; d++ {
					if err := crypto.VerifyCert(fx.keyring, fx.cert, fx.quorum); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(fx.quorum*gossipRedundancy), "sigs/op")
		})
	}
}

// BenchmarkVerifyGossipBatched is the pipeline side of the acceptance
// comparison: ≥2x over BenchmarkVerifyGossipSequential at n=64 (the cache
// absorbs the redundant deliveries; the pool parallelizes the cold one).
func BenchmarkVerifyGossipBatched(b *testing.B) {
	for _, n := range verifySizes {
		b.Run(benchName("n", n), func(b *testing.B) {
			fx := newVerifyFixture(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := crypto.NewVerifier(fx.keyring, crypto.VerifyConfig{})
				for d := 0; d < gossipRedundancy; d++ {
					if err := v.VerifyCert(fx.cert, fx.quorum); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(fx.quorum*gossipRedundancy), "sigs/op")
		})
	}
}

// BenchmarkVerifyColdSequential verifies every signature exactly once,
// sequentially.
func BenchmarkVerifyColdSequential(b *testing.B) {
	for _, n := range verifySizes {
		b.Run(benchName("n", n), func(b *testing.B) {
			fx := newVerifyFixture(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := crypto.VerifyCert(fx.keyring, fx.cert, fx.quorum); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fx.quorum), "sigs/op")
		})
	}
}

// BenchmarkVerifyColdBatched verifies every signature exactly once through
// the worker pool (no cache reuse): the speedup over ColdSequential tracks
// GOMAXPROCS.
func BenchmarkVerifyColdBatched(b *testing.B) {
	for _, n := range verifySizes {
		b.Run(benchName("n", n), func(b *testing.B) {
			fx := newVerifyFixture(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := crypto.NewVerifier(fx.keyring, crypto.VerifyConfig{CacheSize: -1})
				if err := v.VerifyCert(fx.cert, fx.quorum); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(fx.quorum), "sigs/op")
		})
	}
}

func sizeName(size int) string {
	if size >= 1<<20 {
		return benchName("MB", size>>20)
	}
	return benchName("KB", size>>10)
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + string(buf[i:])
}
