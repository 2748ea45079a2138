// Command banyan runs one consensus replica over TCP — the multi-process
// deployment path. Start n processes with the same -peers list and
// distinct -id values; each process prints finalized blocks as they
// commit.
//
// Example (three terminals, n=4 needs a fourth):
//
//	banyan -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	banyan -id 1 -peers ...
//	banyan -id 2 -peers ...
//	banyan -id 3 -peers ... -load 100
//
// The -load flag makes the replica submit that many random transactions
// per second into its own mempool. cmd/localnet spawns a whole cluster in
// one process for quick local evaluation.
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"banyan"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "banyan:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("banyan", flag.ContinueOnError)
	var (
		id       = fs.Int("id", 0, "this replica's ID in [0, n)")
		peerList = fs.String("peers", "", "comma-separated replica addresses, index = replica ID (required)")
		listen   = fs.String("listen", "", "listen address (default: the peers entry for -id)")
		fFlag    = fs.Int("f", 0, "Byzantine faults tolerated (0 = maximum for n)")
		pFlag    = fs.Int("p", 1, "Banyan fast-path slack p")
		delta    = fs.Duration("delta", 50*time.Millisecond, "message-delay bound Δ")
		seed     = fs.Uint64("cluster-seed", 42, "shared demo-PKI seed (must match across replicas)")
		load     = fs.Int("load", 0, "transactions per second to self-submit (0 = none)")
		txSize   = fs.Int("tx-size", 256, "bytes per generated transaction")
		walDir   = fs.String("wal-dir", "", "write-ahead log directory; a restarted process with the same -wal-dir restores its votes from it and rejoins (empty = no durability)")
		quiet    = fs.Bool("quiet", false, "suppress per-block output, print one summary line per 100 blocks")
		obsAddr  = fs.String("obs-addr", "", "serve the observability endpoint on this address: /metrics (Prometheus text), /debug/pprof/*, /trace (Chrome trace JSON), /trace/summary, /slow")
		verbose  = fs.Bool("v", false, "log transport diagnostics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peerList == "" {
		return fmt.Errorf("-peers is required")
	}
	addrs := strings.Split(*peerList, ",")
	n := len(addrs)
	if *id < 0 || *id >= n {
		return fmt.Errorf("-id %d out of range for %d peers", *id, n)
	}
	peers := make(map[int]string, n)
	for i, a := range addrs {
		peers[i] = strings.TrimSpace(a)
	}
	listenAddr := *listen
	if listenAddr == "" {
		listenAddr = peers[*id]
	}

	cfg := banyan.ReplicaConfig{
		ID:          *id,
		N:           n,
		F:           *fFlag,
		P:           *pFlag,
		ListenAddr:  listenAddr,
		Peers:       peers,
		Delta:       *delta,
		ClusterSeed: *seed,
		WALDir:      *walDir,
		ObsAddr:     *obsAddr,
	}
	if *verbose {
		cfg.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	replica, err := banyan.NewReplica(cfg)
	if err != nil {
		return err
	}
	if err := replica.Start(); err != nil {
		return err
	}
	defer replica.Stop()
	fmt.Printf("replica %d/%d listening on %s\n", *id, n, replica.Addr())
	if addr := replica.ObsAddr(); addr != "" {
		fmt.Printf("observability endpoint at http://%s/metrics (pprof under /debug/pprof/)\n", addr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	if *load > 0 {
		go generateLoad(replica, *load, *txSize, stop)
	}

	var (
		blocks, bytes int64
		fast, slow    int64
		start         = time.Now()
	)
	for {
		select {
		case <-stop:
			elapsed := time.Since(start).Seconds()
			fmt.Printf("\nshutting down: %d blocks, %.2f MB committed in %.0fs (%.2f MB/s), fast=%d slow=%d\n",
				blocks, float64(bytes)/1e6, elapsed, float64(bytes)/1e6/elapsed, fast, slow)
			if faults := replica.Faults(); len(faults) > 0 {
				return fmt.Errorf("safety faults: %v", faults)
			}
			return nil
		case c, ok := <-replica.Commits():
			if !ok {
				return fmt.Errorf("commit stream closed unexpectedly")
			}
			blocks++
			bytes += int64(c.PayloadBytes)
			switch c.Path {
			case banyan.PathFast:
				fast++
			case banyan.PathSlow:
				slow++
			}
			if !*quiet {
				fmt.Printf("commit r=%-6d block=%s proposer=%-2d txs=%-4d bytes=%-8d path=%s\n",
					c.Round, c.BlockID, c.Proposer, len(c.Transactions), c.PayloadBytes, c.Path)
			} else if blocks%100 == 0 {
				fmt.Printf("%d blocks committed, %.2f MB, fast=%d slow=%d\n",
					blocks, float64(bytes)/1e6, fast, slow)
			}
		}
	}
}

func generateLoad(r *banyan.Replica, perSecond, txSize int, stop <-chan os.Signal) {
	interval := time.Second / time.Duration(perSecond)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			tx := make([]byte, txSize)
			if _, err := rand.Read(tx); err != nil {
				continue
			}
			r.Submit(tx)
		}
	}
}
