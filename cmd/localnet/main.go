// Command localnet spawns an n-replica cluster over real TCP sockets on
// localhost — every replica a full banyan.Replica with its own transport —
// runs a timed workload, and prints live and final statistics. It is the
// "multi-process local evaluation" entry point in single-binary form
// (replicas share the process but communicate exclusively through TCP).
//
// With -wal-dir every replica keeps a write-ahead log, and the
// -crash/-crash-at/-restart-at flags script a crash-restart: the chosen
// replica is killed mid-run (every proposal and vote it sent is already
// durable), restarted from the log — its voting record restored, its
// chain taken back from its peers — and the run fails unless it catches
// back up to the live tip. CI runs this as the crash-restart smoke test:
//
//	localnet -duration 10s -wal-dir /tmp/wal -crash 1 -crash-at 3s -restart-at 5s
//
// Adding -disk-loss wipes the victim's log before the restart and runs
// the cluster deep-pruned, so the replica comes back with no durable
// state against peers holding only a bounded window — it must recover
// via peer-to-peer snapshot state sync. CI runs this as the
// disk-loss-rejoin smoke test.
//
// With -dissem the cluster runs the batch-dissemination layer: proposals
// commit batch digests, bodies travel out-of-band, and a restarted
// replica — whose body store is in-memory only — refetches what delivery
// needs. CI combines -dissem with the crash-restart script above.
//
// With -reconfig the run scripts a live membership change: one extra
// identity is provisioned, the cluster runs
// deep-pruned, and mid-run the extra replica is booted cold and admitted
// by a finalized ConfigChange (it catches up through snapshot state sync
// and votes from the next epoch), then removed again. The run fails
// unless every replica reaches epoch 2 with no safety faults. CI runs
// this as the reconfiguration smoke test:
//
//	localnet -duration 12s -reconfig -add-at 3s -remove-at 7s
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"banyan"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "localnet:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("localnet", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 4, "number of replicas")
		pFlag     = fs.Int("p", 1, "Banyan fast-path slack p")
		delta     = fs.Duration("delta", 20*time.Millisecond, "message-delay bound Δ")
		duration  = fs.Duration("duration", 15*time.Second, "run time")
		load      = fs.Int("load", 200, "transactions per second submitted across the cluster")
		txSize    = fs.Int("tx-size", 512, "bytes per transaction")
		basePort  = fs.Int("base-port", 0, "first TCP port (0 = ephemeral ports)")
		walDir    = fs.String("wal-dir", "", "write-ahead log root (one subdirectory per replica; empty = no WAL)")
		crashID   = fs.Int("crash", -1, "replica to kill mid-run (requires -wal-dir; must not be 0, the observer)")
		crashAt   = fs.Duration("crash-at", 0, "when to kill it (0 = duration/3)")
		restartAt = fs.Duration("restart-at", 0, "when to restart it from its WAL (0 = 2*duration/3)")
		diskLoss  = fs.Bool("disk-loss", false, "wipe the crashed replica's WAL before restarting: it returns with no durable state and must recover its chain from peers via snapshot state sync (runs all replicas deep-pruned so only a bounded window is serveable)")
		dissem    = fs.Bool("dissem", false, "route payloads through the batch-dissemination layer: proposals commit batch digests, bodies travel out-of-band, delivery gates on availability")
		dissemB   = fs.Int("dissem-batch", 0, "dissemination batch cut size in bytes (0 = 64 KiB); transactions larger than this are rejected at Submit")
		reconfig  = fs.Bool("reconfig", false, "script a live membership change: boot an extra replica mid-run, admit it via a finalized ConfigChange (it enters through snapshot state sync), then remove it again (runs deep-pruned)")
		addAt     = fs.Duration("add-at", 0, "when to boot and admit the extra replica (0 = duration/4)")
		removeAt  = fs.Duration("remove-at", 0, "when to remove it again (0 = duration/2)")
		obsAddr   = fs.String("obs-addr", "", "serve replica 0's observability endpoint on this address: /metrics (Prometheus text), /debug/pprof/*, /trace (Chrome trace JSON), /trace/summary, /slow")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *crashID >= 0 {
		if *walDir == "" {
			return fmt.Errorf("-crash requires -wal-dir (the restart restores from the log)")
		}
		if *crashID == 0 || *crashID >= *n {
			return fmt.Errorf("-crash %d out of range (observer 0 cannot be crashed)", *crashID)
		}
	}
	if *diskLoss && *crashID < 0 {
		return fmt.Errorf("-disk-loss requires -crash (it scripts the restart)")
	}
	if *crashAt == 0 {
		*crashAt = *duration / 3
	}
	if *restartAt == 0 {
		*restartAt = 2 * *duration / 3
	}
	if *crashID >= 0 && *restartAt <= *crashAt {
		return fmt.Errorf("-restart-at %s must be after -crash-at %s", *restartAt, *crashAt)
	}
	if *reconfig && *crashID >= 0 {
		return fmt.Errorf("-reconfig and -crash script conflicting scenarios; run them separately")
	}
	if *addAt == 0 {
		*addAt = *duration / 4
	}
	if *removeAt == 0 {
		*removeAt = *duration / 2
	}
	if *reconfig && *removeAt <= *addAt {
		return fmt.Errorf("-remove-at %s must be after -add-at %s", *removeAt, *addAt)
	}
	// With -reconfig one extra identity is provisioned: the joiner gets ID
	// n and every replica knows its address and key from the start.
	maxN := *n
	joinerID := -1
	if *reconfig {
		joinerID = *n
		maxN = *n + 1
	}

	// Allocate addresses. With ephemeral ports we must bind first and
	// exchange discovered addresses, so run two passes: reserve with
	// explicit ports when given, otherwise pre-bind listeners via port 0
	// is not possible before NewReplica — use sequential ports from a
	// random base instead.
	base := *basePort
	if base == 0 {
		base = 20000 + rand.New(rand.NewSource(time.Now().UnixNano())).Intn(20000)
	}
	peers := make(map[int]string, maxN)
	for i := 0; i < maxN; i++ {
		peers[i] = fmt.Sprintf("127.0.0.1:%d", base+i)
	}

	mkReplica := func(i int) (*banyan.Replica, error) {
		cfg := banyan.ReplicaConfig{
			ID:               i,
			N:                *n,
			MaxN:             maxN,
			P:                *pFlag,
			Peers:            peers,
			Delta:            *delta,
			Dissem:           *dissem,
			DissemBatchBytes: *dissemB,
		}
		if *diskLoss || *reconfig {
			// Deep-pruned, tight windows: peers can only serve their last
			// few rounds, so a wiped or late-joining replica is forced
			// through the snapshot state-sync path rather than
			// block-by-block catch-up.
			cfg.DeepPrune = true
			cfg.PruneKeep = 8
		}
		if *walDir != "" {
			cfg.WALDir = filepath.Join(*walDir, fmt.Sprintf("replica-%d", i))
		}
		if i == 0 && *obsAddr != "" {
			// The endpoint serves the observer replica; 0 is never crashed,
			// so the address binds exactly once per run.
			cfg.ObsAddr = *obsAddr
		}
		return banyan.NewReplica(cfg)
	}

	// replicas is shared with the load-generator goroutine and mutated on
	// restart; all access goes through the mutex.
	var (
		replicasMu sync.Mutex
		replicas   = make([]*banyan.Replica, maxN) // joiner slot stays nil until -add-at
	)
	getReplica := func(i int) *banyan.Replica {
		replicasMu.Lock()
		defer replicasMu.Unlock()
		return replicas[i]
	}
	for i := 0; i < *n; i++ {
		r, err := mkReplica(i)
		if err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		replicas[i] = r
	}
	for i := 0; i < *n; i++ {
		if err := replicas[i].Start(); err != nil {
			return fmt.Errorf("start replica %d: %w", i, err)
		}
	}
	defer func() {
		for i := 0; i < maxN; i++ {
			if r := getReplica(i); r != nil {
				r.Stop()
			}
		}
	}()
	fmt.Printf("localnet: %d banyan replicas on 127.0.0.1:%d..%d, %v\n",
		*n, base, base+*n-1, *duration)
	if addr := replicas[0].ObsAddr(); addr != "" {
		fmt.Printf("localnet: observability endpoint at http://%s/metrics (pprof under /debug/pprof/)\n", addr)
	}

	// Load generator: round-robin submission across replicas.
	stopLoad := make(chan struct{})
	go func() {
		rng := rand.New(rand.NewSource(1))
		interval := time.Second / time.Duration(*load)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		i := 0
		for {
			select {
			case <-stopLoad:
				return
			case <-tick.C:
				tx := make([]byte, *txSize)
				rng.Read(tx)
				getReplica(i % *n).Submit(tx)
				i++
			}
		}
	}()

	// Observe commits at replica 0.
	var (
		blocks, bytes, txs int64
		fast, slow         int64
		firstCommit        time.Time
		lastRound          uint64
	)
	// Crash-restart schedule: both timers stay nil (never firing) unless
	// -crash selected a victim.
	var crashC, restartC <-chan time.Time
	if *crashID >= 0 {
		crashC = time.After(*crashAt)
		restartC = time.After(*restartAt)
	}
	// victimRound tracks the highest round the restarted victim has
	// committed — through catch-up first, live commits once it rejoins.
	var victimRound atomic.Uint64
	restarted := false

	// Reconfiguration schedule: both timers stay nil unless -reconfig.
	var addC, removeC <-chan time.Time
	if *reconfig {
		addC = time.After(*addAt)
		removeC = time.After(*removeAt)
	}
	// joinerRound tracks the highest round the admitted joiner committed.
	var joinerRound atomic.Uint64

	deadline := time.After(*duration)
	progress := time.NewTicker(5 * time.Second)
	defer progress.Stop()
	start := time.Now()

loop:
	for {
		select {
		case <-deadline:
			break loop
		case <-crashC:
			crashC = nil
			getReplica(*crashID).Crash()
			fmt.Printf("  t=%4.0fs killed replica %d (WAL tail beyond the last group commit is lost)\n",
				time.Since(start).Seconds(), *crashID)
		case <-restartC:
			restartC = nil
			if *diskLoss {
				if err := os.RemoveAll(filepath.Join(*walDir, fmt.Sprintf("replica-%d", *crashID))); err != nil {
					return fmt.Errorf("wiping replica %d WAL: %w", *crashID, err)
				}
			}
			r, err := mkReplica(*crashID)
			if err != nil {
				return fmt.Errorf("restart replica %d: %w", *crashID, err)
			}
			if err := r.Start(); err != nil {
				return fmt.Errorf("restart replica %d: %w", *crashID, err)
			}
			replicasMu.Lock()
			replicas[*crashID] = r
			replicasMu.Unlock()
			restarted = true
			go func() {
				for c := range r.Commits() {
					victimRound.Store(c.Round)
				}
			}()
			if *diskLoss {
				fmt.Printf("  t=%4.0fs restarted replica %d with a wiped WAL (peer state sync only)\n",
					time.Since(start).Seconds(), *crashID)
			} else {
				fmt.Printf("  t=%4.0fs restarted replica %d from its WAL\n",
					time.Since(start).Seconds(), *crashID)
			}
		case <-addC:
			addC = nil
			j, err := mkReplica(joinerID)
			if err != nil {
				return fmt.Errorf("joiner %d: %w", joinerID, err)
			}
			if err := j.Start(); err != nil {
				return fmt.Errorf("start joiner %d: %w", joinerID, err)
			}
			replicasMu.Lock()
			replicas[joinerID] = j
			replicasMu.Unlock()
			go func() {
				for c := range j.Commits() {
					joinerRound.Store(c.Round)
				}
			}()
			// Propose the admission on every running replica: whichever
			// leads first attaches the change to its block.
			for i := 0; i < *n; i++ {
				if err := getReplica(i).ProposeAddValidator(joinerID); err != nil {
					return fmt.Errorf("propose add on replica %d: %w", i, err)
				}
			}
			fmt.Printf("  t=%4.0fs booted replica %d cold and proposed its admission\n",
				time.Since(start).Seconds(), joinerID)
		case <-removeC:
			removeC = nil
			for i := 0; i < *n; i++ {
				if err := getReplica(i).ProposeRemoveValidator(joinerID); err != nil {
					return fmt.Errorf("propose remove on replica %d: %w", i, err)
				}
			}
			fmt.Printf("  t=%4.0fs proposed removing replica %d\n",
				time.Since(start).Seconds(), joinerID)
		case <-progress.C:
			fmt.Printf("  t=%4.0fs round=%-6d blocks=%-6d txs=%-7d %.2f MB committed (fast=%d slow=%d)\n",
				time.Since(start).Seconds(), lastRound, blocks, txs, float64(bytes)/1e6, fast, slow)
		case c, ok := <-replicas[0].Commits():
			if !ok {
				break loop
			}
			if firstCommit.IsZero() {
				firstCommit = time.Now()
			}
			blocks++
			bytes += int64(c.PayloadBytes)
			txs += int64(len(c.Transactions))
			lastRound = c.Round
			switch c.Path {
			case banyan.PathFast:
				fast++
			case banyan.PathSlow:
				slow++
			}
		}
	}
	close(stopLoad)

	elapsed := time.Since(start).Seconds()
	fmt.Printf("\nresults after %.0fs:\n", elapsed)
	fmt.Printf("  blocks committed : %d (%.1f/s)\n", blocks, float64(blocks)/elapsed)
	fmt.Printf("  transactions     : %d (%.1f/s)\n", txs, float64(txs)/elapsed)
	fmt.Printf("  payload          : %.2f MB (%.3f MB/s)\n", float64(bytes)/1e6, float64(bytes)/1e6/elapsed)
	fmt.Printf("  finalization     : fast=%d slow=%d indirect=%d\n", fast, slow, blocks-fast-slow)
	for i, r := range replicas {
		if r == nil {
			continue // a joiner slot whose -add-at never fired
		}
		if faults := r.Faults(); len(faults) > 0 {
			return fmt.Errorf("replica %d faults: %v", i, faults)
		}
	}
	fmt.Println("  safety           : no faults")
	if *reconfig {
		joiner := getReplica(joinerID)
		if joiner == nil {
			return fmt.Errorf("reconfig: joiner %d never booted (-add-at beyond -duration?)", joinerID)
		}
		obsEpoch := getReplica(0).Epoch()
		jr := joinerRound.Load()
		fmt.Printf("  reconfig         : observer epoch=%d, joiner committed through round %d (epoch %d)\n",
			obsEpoch, jr, joiner.Epoch())
		if obsEpoch != 2 {
			return fmt.Errorf("reconfig: observer finished in epoch %d, want 2 (add then remove)", obsEpoch)
		}
		if jr == 0 {
			return fmt.Errorf("reconfig: admitted replica %d never committed — state sync or admission failed", joinerID)
		}
	}
	if restarted {
		vr := victimRound.Load()
		fmt.Printf("  recovery         : replica %d back at round %d (observer at %d)\n",
			*crashID, vr, lastRound)
		if vr == 0 {
			return fmt.Errorf("restarted replica %d never committed — recovery failed", *crashID)
		}
		if lastRound > 30 && vr+30 < lastRound {
			return fmt.Errorf("restarted replica %d stuck at round %d, observer at %d",
				*crashID, vr, lastRound)
		}
	}
	return nil
}
