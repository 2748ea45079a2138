// Command bench regenerates every table and figure of the paper's
// evaluation (section 9) on the discrete-event WAN simulator, plus
// ablations of the fast path, its parameter p, tip forwarding and quorum
// geography, and the dissem comparison ARCHITECTURE.md quotes for that
// mode.
//
// Usage:
//
//	bench -exp all                   # everything, paper-scale durations
//	bench -exp fig6a,fig6c -quick    # selected experiments, short runs
//	bench -exp table1                # analytic Table 1
//
// Output is aligned text, one section per experiment, with the paper's
// reported numbers inlined for comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"banyan/internal/harness"
	"banyan/internal/latencymodel"
	"banyan/internal/types"
	"banyan/internal/wan"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	duration time.Duration
	seed     uint64
	quick    bool
}

// runCompared runs one side of a Banyan-vs-ICC figure. Both sides run
// without the line-35 relay: Banyan relays headers where the icc baseline
// relays whole block bodies, a difference in receiver load the paper does
// not claim — its protocols forward identically — so the comparison
// leaves it out. The ablation-forwarding experiment measures the relay on
// its own.
func runCompared(cfg harness.Config) (*harness.Result, error) {
	cfg.NoForwarding = true
	return runChecked(cfg)
}

// runChecked is the one way an experiment runs a configuration: a run
// whose result fails checkResult is an error, so the whole command fails
// rather than print its row.
func runChecked(cfg harness.Config) (*harness.Result, error) {
	res, err := harness.Run(cfg)
	if err != nil {
		return nil, err
	}
	if err := checkResult(cfg.Protocol, res); err != nil {
		return nil, err
	}
	return res, nil
}

// checkResult refuses a run with a safety fault anywhere in the cluster,
// or one in which no block committed: a figure row of a stalled protocol
// is a row of zeros, not a measurement.
func checkResult(proto harness.Protocol, r *harness.Result) error {
	switch {
	case r.Faults > 0:
		return fmt.Errorf("%s: %d safety faults", proto, r.Faults)
	case r.BlocksCommitted == 0:
		return fmt.Errorf("%s: no block committed", proto)
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "all", "comma-separated experiments: table1,fig1,fig2,fig6a,fig6b,fig6c,fig6d,fig6e,traffic,ablation-p,ablation-fastpath,ablation-forwarding,ablation-geography,dissem or 'all'")
		duration = fs.Duration("duration", 120*time.Second, "virtual duration per run (paper: 120s)")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		quick    = fs.Bool("quick", false, "short runs and fewer sweep points")
		list     = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range allExperiments {
			fmt.Printf("%-20s %s\n", e.name, e.desc)
		}
		return nil
	}
	opts := options{duration: *duration, seed: *seed, quick: *quick}
	if *quick && *duration == 120*time.Second {
		opts.duration = 20 * time.Second
	}

	// Every name is checked before anything runs.
	known := map[string]bool{"all": true}
	for _, e := range allExperiments {
		known[e.name] = true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		if !known[name] {
			return fmt.Errorf("unknown experiment %q (try -list)", name)
		}
		want[name] = true
	}
	for _, e := range allExperiments {
		if !want["all"] && !want[e.name] {
			continue
		}
		fmt.Printf("==== %s — %s ====\n", e.name, e.desc)
		start := time.Now()
		if err := e.run(opts); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("(%s in %.1fs wall time)\n\n", e.name, time.Since(start).Seconds())
	}
	return nil
}

type experiment struct {
	name string
	desc string
	run  func(options) error
}

var allExperiments = []experiment{
	{"table1", "Table 1: analytic protocol comparison", runTable1},
	{"fig1", "Figure 1: communication steps to finality (latency in δ units)", runFig1},
	{"fig2", "Figure 2: integrated fast path has no switching cost", runFig2},
	{"fig6a", "Figure 6a: throughput vs latency, n=19, 4 global DCs", runFig6a},
	{"fig6b", "Figure 6b: throughput vs latency, n=4, 4 global DCs", runFig6b},
	{"fig6c", "Figure 6c: latency variance, n=4, 1MB blocks", runFig6c},
	{"fig6d", "Figure 6d: crash faults, n=19, 4 US DCs, 3s timeout", runFig6d},
	{"fig6e", "Figure 6e: global network, n=19 across 19 regions", runFig6e},
	{"traffic", "Message complexity: traffic per finalized block", runTraffic},
	{"ablation-p", "Ablation: sweep of the fast-path parameter p", runAblationP},
	{"ablation-fastpath", "Ablation: Banyan with the fast path disabled", runAblationFastPath},
	{"ablation-forwarding", "Ablation: tip forwarding on/off", runAblationForwarding},
	{"ablation-geography", "Ablation: co-located vs spread quorum geography", runAblationGeography},
	{"dissem", "Decoupled batch dissemination: digest-only proposals vs inline payloads", runDissem},
}

const header = "%-22s %10s %10s %10s %10s %12s %8s %8s\n"
const rowFmt = "%-22s %10.1f %10.1f %10.1f %10.1f %12.2f %8d %8d\n"

func printHeader() {
	fmt.Printf(header, "config", "mean(ms)", "p50(ms)", "p95(ms)", "sd(ms)", "tput(MB/s)", "fast", "slow")
}

func printRow(name string, r *harness.Result) {
	fmt.Printf(rowFmt, name,
		msF(r.Latency.Mean), msF(r.Latency.P50), msF(r.Latency.P95), msF(r.Latency.StdDev),
		r.ThroughputBps/1e6, r.FastFinal, r.SlowFinal)
}

func msF(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func runTable1(options) error {
	fmt.Print(latencymodel.Render(1, 1))
	fmt.Println()
	fmt.Print(latencymodel.Render(6, 1))
	fmt.Println("\nNote: this repository implements Banyan, ICC, Streamlet, and chained")
	fmt.Println("3-phase HotStuff (~7δ at the proposer; the table's Fast HotStuff row is")
	fmt.Println("the pipelined 5δ variant). Measured step counts: see fig1.")
	return nil
}

// fig1OneWay is the one-way delay δ of Figure 1's uniform topology.
const fig1OneWay = 50 * time.Millisecond

// fig1Steps measures one protocol's mean proposal finalization latency on
// a 4-replica uniform topology with the receiver processing model off, and
// returns it together with its length in units of the one-way delay δ —
// the "communication steps" of Figure 1.
func fig1Steps(o options, proto harness.Protocol) (time.Duration, float64, error) {
	res, err := runCompared(harness.Config{
		Protocol:    proto,
		Params:      harness.ParamsFor(proto, 4, 1, 1),
		Topology:    wan.Uniform(4, fig1OneWay),
		BlockSize:   1 << 10,
		Duration:    o.duration,
		Seed:        o.seed,
		ProcRateBps: -1, // disable CPU model: count pure steps
		ProcFixed:   -1,
	})
	if err != nil {
		return 0, 0, err
	}
	return res.Latency.Mean, float64(res.Latency.Mean) / float64(fig1OneWay), nil
}

func runFig1(o options) error {
	fmt.Printf("%-12s %12s %10s   %s\n", "protocol", "latency(ms)", "steps(δ)", "paper")
	paper := map[harness.Protocol]string{
		harness.Banyan:    "2 steps (fast path)",
		harness.ICC:       "3 steps",
		harness.HotStuff:  "~7 steps (3-chain commit at proposer)",
		harness.Streamlet: "epoch-clocked (Δ-bound, not δ)",
	}
	for _, proto := range harness.Protocols() {
		mean, steps, err := fig1Steps(o, proto)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %12.1f %10.2f   %s\n", proto, msF(mean), steps, paper[proto])
	}
	return nil
}

// runFig2 demonstrates the integrated dual mode: with the fast path
// unable to fire (p+1 replicas crashed), Banyan's latency matches ICC's —
// there is no switching cost — whereas a strawman that runs the fast path
// and falls back on a timeout would pay the timeout on every block.
func runFig2(o options) error {
	topo, err := wan.FourGlobal19()
	if err != nil {
		return err
	}
	// Crash p+1 = 2 replicas so the n-p = 18 fast quorum is unreachable.
	crash := []types.ReplicaID{17, 18}
	printHeader()
	var banyanMean, iccMean, delta time.Duration
	for _, proto := range []harness.Protocol{harness.Banyan, harness.ICC} {
		res, err := runCompared(harness.Config{
			Protocol:  proto,
			Params:    harness.ParamsFor(proto, 19, 6, 1),
			Topology:  topo,
			BlockSize: 400 << 10,
			Duration:  o.duration,
			Seed:      o.seed,
			Crash:     crash,
		})
		if err != nil {
			return err
		}
		printRow(string(proto)+"+2crash", res)
		delta = res.Delta
		if proto == harness.Banyan {
			banyanMean = res.Latency.Mean
		} else {
			iccMean = res.Latency.Mean
		}
	}
	fmt.Printf("\nBanyan (fast path dark) vs ICC: %.1fms vs %.1fms (%+.1f%%)\n",
		msF(banyanMean), msF(iccMean), 100*(float64(banyanMean)/float64(iccMean)-1))
	fmt.Printf("strawman timeout-fallback protocol would add a fast-path timeout (~2Δ = %.0fms) per block: ~%.1fms\n",
		msF(2*delta), msF(iccMean+2*delta))
	return nil
}

func fig6Sweep(o options, topo *wan.Topology, sizes []int, configs []protoConfig) error {
	printHeader()
	for _, size := range sizes {
		for _, pc := range configs {
			res, err := runCompared(harness.Config{
				Protocol:  pc.proto,
				Params:    harness.ParamsFor(pc.proto, topo.N(), pc.f, pc.p),
				Topology:  topo,
				BlockSize: size,
				Duration:  o.duration,
				Seed:      o.seed,
			})
			if err != nil {
				return err
			}
			printRow(fmt.Sprintf("%s/%s", pc.label, sizeLabel(size)), res)
		}
		fmt.Println()
	}
	return nil
}

type protoConfig struct {
	label string
	proto harness.Protocol
	f, p  int
}

func sizeLabel(size int) string {
	if size >= 1<<20 {
		return fmt.Sprintf("%.1fMB", float64(size)/(1<<20))
	}
	return fmt.Sprintf("%dKB", size>>10)
}

func runFig6a(o options) error {
	topo, err := wan.FourGlobal19()
	if err != nil {
		return err
	}
	sizes := []int{100 << 10, 200 << 10, 400 << 10, 800 << 10, 1600 << 10}
	if o.quick {
		sizes = []int{400 << 10, 1600 << 10}
	}
	configs := []protoConfig{
		{"banyan-p1", harness.Banyan, 6, 1},
		{"banyan-p4", harness.Banyan, 4, 4},
		{"icc", harness.ICC, 6, 0},
		{"hotstuff", harness.HotStuff, 6, 0},
		{"streamlet", harness.Streamlet, 6, 0},
	}
	fmt.Println("paper at 400KB: ICC 239ms, Banyan p=1 216ms (-10%), Banyan p=4 179ms (-25.1%)")
	return fig6Sweep(o, topo, sizes, configs)
}

func runFig6b(o options) error {
	topo, err := wan.FourGlobal4()
	if err != nil {
		return err
	}
	sizes := []int{500 << 10, 1 << 20, 1500 << 10, 2 << 20, 2500 << 10}
	if o.quick {
		sizes = []int{1 << 20}
	}
	configs := []protoConfig{
		{"banyan-p1", harness.Banyan, 1, 1},
		{"icc", harness.ICC, 1, 0},
		{"hotstuff", harness.HotStuff, 1, 0},
		{"streamlet", harness.Streamlet, 1, 0},
	}
	fmt.Println("paper at 1MB: ICC 224ms, Banyan 157ms (-29.9%)")
	return fig6Sweep(o, topo, sizes, configs)
}

func runFig6c(o options) error {
	topo, err := wan.FourGlobal4()
	if err != nil {
		return err
	}
	fmt.Println("paper: Banyan's fast path does not increase latency variance (n=4, 1MB)")
	fmt.Printf("%-10s %10s %10s %10s %10s %10s %10s %10s\n",
		"protocol", "mean(ms)", "sd(ms)", "min(ms)", "p50(ms)", "p95(ms)", "p99(ms)", "max(ms)")
	for _, proto := range []harness.Protocol{harness.Banyan, harness.ICC} {
		res, err := runCompared(harness.Config{
			Protocol:   proto,
			Params:     harness.ParamsFor(proto, 4, 1, 1),
			Topology:   topo,
			BlockSize:  1 << 20,
			Duration:   o.duration,
			Seed:       o.seed,
			JitterFrac: 0.08, // variance needs jitter; the paper's WAN has it
		})
		if err != nil {
			return err
		}
		l := res.Latency
		fmt.Printf("%-10s %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			proto, msF(l.Mean), msF(l.StdDev), msF(l.Min), msF(l.P50), msF(l.P95), msF(l.P99), msF(l.Max))
	}
	return nil
}

func runFig6d(o options) error {
	topo, err := wan.FourUS19()
	if err != nil {
		return err
	}
	// The paper sets the (rank-1) timeout to 3 seconds: Δ_notary(1) = 2Δ.
	delta := 1500 * time.Millisecond
	crashCounts := []int{0, 2, 4, 6}
	if o.quick {
		crashCounts = []int{0, 4}
	}
	// Crashed replicas are spread across datacenters (5/5/5/4 layout).
	spread := []types.ReplicaID{0, 5, 10, 15, 1, 6}
	fmt.Println("paper: no penalty for trying the fast path; under crashes Banyan behaves exactly like ICC")
	fmt.Printf("%-18s %10s %12s %14s %8s %8s\n",
		"config", "mean(ms)", "tput(MB/s)", "blkint(ms)", "fast", "slow")
	for _, crashes := range crashCounts {
		for _, proto := range []harness.Protocol{harness.Banyan, harness.ICC} {
			res, err := runCompared(harness.Config{
				Protocol:  proto,
				Params:    harness.ParamsFor(proto, 19, 6, 1),
				Topology:  topo,
				BlockSize: 400 << 10,
				Duration:  o.duration,
				Delta:     delta,
				Seed:      o.seed,
				Crash:     spread[:crashes],
			})
			if err != nil {
				return err
			}
			fmt.Printf("%-18s %10.1f %12.2f %14.1f %8d %8d\n",
				fmt.Sprintf("%s/%dcrash", proto, crashes),
				msF(res.Latency.Mean), res.ThroughputBps/1e6, msF(res.BlockInterval),
				res.FastFinal, res.SlowFinal)
		}
		fmt.Println()
	}
	return nil
}

func runFig6e(o options) error {
	topo, err := wan.Global19()
	if err != nil {
		return err
	}
	configs := []protoConfig{
		{"banyan-f6-p1", harness.Banyan, 6, 1},
		{"banyan-f4-p4", harness.Banyan, 4, 4},
		{"icc", harness.ICC, 6, 0},
		{"hotstuff", harness.HotStuff, 6, 0},
		{"streamlet", harness.Streamlet, 6, 0},
	}
	sizes := []int{1 << 20}
	if !o.quick {
		sizes = []int{256 << 10, 512 << 10, 1 << 20, 2 << 20}
	}
	fmt.Println("paper at 1MB: ICC 384ms, Banyan f=6,p=1 362ms (-5.8%), Banyan f=4,p=4 324ms (-16%)")
	return fig6Sweep(o, topo, sizes, configs)
}

// runTraffic measures message complexity: messages and bytes on the wire
// per finalized block, for each protocol, then Banyan's split by wire
// kind. The paper (section 2, "Other aspects") notes Banyan's fast path
// adds only constant per-round message overhead over ICC — fast votes
// ride on existing messages and the Advance broadcast replaces ICC's
// notarization broadcast.
func runTraffic(o options) error {
	topo, err := wan.FourGlobal19()
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %12s %14s %16s %14s\n",
		"protocol", "blocks", "msgs/block", "wire-KB/block", "overhead")
	const blockSize = 64 << 10
	var banyan *harness.Result
	for _, proto := range harness.Protocols() {
		res, err := runCompared(harness.Config{
			Protocol:  proto,
			Params:    harness.ParamsFor(proto, 19, 6, 1),
			Topology:  topo,
			BlockSize: blockSize,
			Duration:  o.duration,
			Seed:      o.seed,
		})
		if err != nil {
			return err
		}
		if proto == harness.Banyan {
			banyan = res
		}
		msgsPerBlock := float64(res.Messages) / float64(res.BlocksCommitted)
		kbPerBlock := float64(res.MessageBytes) / float64(res.BlocksCommitted) / 1024
		// Overhead: wire bytes beyond the payload itself, per block.
		overhead := kbPerBlock - float64(blockSize)/1024
		fmt.Printf("%-12s %12d %14.1f %16.1f %13.1fx\n",
			proto, res.BlocksCommitted, msgsPerBlock, kbPerBlock,
			overhead/(float64(blockSize)/1024))
	}
	fmt.Println("(overhead = wire bytes beyond one payload copy, as a multiple of the payload;")
	fmt.Println(" includes the n-1 unicasts of every broadcast plus tip-forwarding relays)")
	blocks := float64(banyan.BlocksCommitted)
	fmt.Printf("\n%-18s %14s %16s %12s\n", "banyan kind", "msgs/block", "wire-KB/block", "bytes/msg")
	for kind, st := range banyan.Traffic {
		if st.Messages > 0 {
			fmt.Printf("%-18s %14.1f %16.1f %12.0f\n", types.MsgKind(kind),
				float64(st.Messages)/blocks, float64(st.Bytes)/blocks/1024, float64(st.Bytes)/float64(st.Messages))
		}
	}
	return nil
}

func runAblationP(o options) error {
	topo, err := wan.FourGlobal19()
	if err != nil {
		return err
	}
	fmt.Println("latency vs p at n=19 (larger p: more robust and faster fast path, lower f)")
	printHeader()
	// Valid (f, p) pairs at n = 19: the bound 3f+2p-1 <= 19 admits exactly
	// f=6,p=1 (the paper's first config), f=5,p=2, and f=4,p=4 (the second).
	for _, pp := range []struct{ f, p int }{{6, 1}, {5, 2}, {4, 4}} {
		params := types.Params{N: 19, F: pp.f, P: pp.p}
		if err := params.Validate(); err != nil {
			fmt.Printf("%-22s invalid: %v\n", fmt.Sprintf("f=%d,p=%d", pp.f, pp.p), err)
			continue
		}
		res, err := runChecked(harness.Config{
			Protocol:  harness.Banyan,
			Params:    params,
			Topology:  topo,
			BlockSize: 400 << 10,
			Duration:  o.duration,
			Seed:      o.seed,
		})
		if err != nil {
			return err
		}
		printRow(fmt.Sprintf("banyan f=%d p=%d", pp.f, pp.p), res)
	}
	return nil
}

func runAblationFastPath(o options) error {
	topo, err := wan.FourGlobal4()
	if err != nil {
		return err
	}
	fmt.Println("isolating the fast path: Banyan vs Banyan-without-fast-path vs ICC (n=4, 1MB)")
	printHeader()
	for _, pc := range []protoConfig{
		{"banyan", harness.Banyan, 1, 1},
		{"banyan-nofast", harness.BanyanNoFast, 1, 1},
		{"icc", harness.ICC, 1, 0},
	} {
		res, err := runCompared(harness.Config{
			Protocol:  pc.proto,
			Params:    harness.ParamsFor(pc.proto, 4, pc.f, pc.p),
			Topology:  topo,
			BlockSize: 1 << 20,
			Duration:  o.duration,
			Seed:      o.seed,
		})
		if err != nil {
			return err
		}
		printRow(pc.label, res)
	}
	return nil
}

func runAblationForwarding(o options) error {
	topo, err := wan.FourGlobal19()
	if err != nil {
		return err
	}
	fmt.Println("tip forwarding (Algorithm 1 line 35 / Bamboo fix) on vs off, n=19, 400KB")
	printHeader()
	for _, off := range []bool{false, true} {
		for _, proto := range []harness.Protocol{harness.Banyan, harness.ICC} {
			res, err := runChecked(harness.Config{
				Protocol:     proto,
				Params:       harness.ParamsFor(proto, 19, 6, 1),
				Topology:     topo,
				BlockSize:    400 << 10,
				Duration:     o.duration,
				Seed:         o.seed,
				NoForwarding: off,
			})
			if err != nil {
				return err
			}
			label := string(proto) + "/fwd"
			if off {
				label = string(proto) + "/nofwd"
			}
			printRow(label, res)
		}
	}
	return nil
}

func runAblationGeography(o options) error {
	fmt.Println("quorum geography: the fast path gains most when a whole datacenter is far (p=f skips it)")
	printHeader()
	cases := []struct {
		label string
		dcs   []string
	}{
		{"spread", []string{"us-east-1", "us-west-2", "eu-central-1", "ap-northeast-1"}},
		{"colocated-outlier", []string{"us-east-1", "us-east-2", "ca-central-1", "ap-southeast-2"}},
		{"regional", []string{"us-east-1", "us-east-2", "us-west-1", "us-west-2"}},
	}
	for _, tc := range cases {
		topo, err := wan.Colocated("geo-"+tc.label, tc.dcs, []int{5, 5, 5, 4})
		if err != nil {
			return err
		}
		for _, pc := range []protoConfig{
			{"banyan-p4", harness.Banyan, 4, 4},
			{"icc", harness.ICC, 6, 0},
		} {
			res, err := runCompared(harness.Config{
				Protocol:  pc.proto,
				Params:    harness.ParamsFor(pc.proto, 19, pc.f, pc.p),
				Topology:  topo,
				BlockSize: 400 << 10,
				Duration:  o.duration,
				Seed:      o.seed,
			})
			if err != nil {
				return err
			}
			printRow(tc.label+"/"+pc.label, res)
		}
		fmt.Println()
	}
	return nil
}
