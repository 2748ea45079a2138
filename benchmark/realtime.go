package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"banyan"
)

// Fixed schedule of every real-time workload.
const (
	// setupRepeats is how many times a run assembles and boots the
	// deployment; setup_s uses the median so one slow boot does not move it.
	setupRepeats = 5
	// warmup is the loaded time between the first committed round and the
	// start of the measured window.
	warmup = 2 * time.Second
	// resubmitAfter is the client's patience: a transaction not committed
	// this long after it was last sent is sent again, unchanged, to the same
	// replica. Nothing re-queues the transactions of an orphaned proposal,
	// so a client that wants its transaction committed has to.
	resubmitAfter = 2 * time.Second
	// maxSubmissions is how often a client sends one transaction before it
	// gives up and the operation counts as failed.
	maxSubmissions = 5
	// firstCommitTimeout bounds the wait for a booted deployment's first
	// committed round.
	firstCommitTimeout = 15 * time.Second
	// restartGrace is how long a restarted victim gets to catch up before
	// the deployment stops.
	restartGrace = 3 * time.Second
	// txHeader is the id and tag that open every transaction.
	txHeader = 16
	// resubmitSpanBase keeps the IDs of resubmission spans clear of the
	// transaction spans' (2*id+2 and 2*id+3).
	resubmitSpanBase = 1 << 62
)

// rtWorkload describes one real-time workload: a deployment and the load
// one generator goroutine puts on it.
type rtWorkload struct {
	// txSize is the transaction size in bytes (at least txHeader).
	txSize int
	// clients > 0 selects a closed loop of that many logical clients, each
	// with one transaction outstanding; client k submits to
	// targets[k % len(targets)].
	clients int
	// rate > 0 selects an open loop of that many transactions per second,
	// round-robin over targets.
	rate float64
	// targets are the replicas that receive submissions.
	targets []int
	// victim is crashed before the warm-up and restarted after the window;
	// negative means no fault.
	victim int
	// blockBytes is the block size the layer timings encode and decode.
	blockBytes int
	// tcp marks the deployment that moves encoded frames over sockets.
	tcp bool
	// wal and dissem mark the layers that are on.
	wal, dissem bool
	build       func(seed uint64, traced bool, walDir string) (system, error)
}

// window is the measured interval; both goroutines classify events
// against these two fixed instants, so they share no mutable state.
type window struct{ start, end time.Time }

func (w window) holds(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

// splitmix64 is the seed-to-stream mixer behind transaction tags.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// txSource makes the run's transactions from the seed: an 8-byte id, an
// 8-byte tag derived from seed and id, then seed-derived filler.
type txSource struct {
	seed   uint64
	size   int
	filler []byte
	buf    []byte // reused: Submit copies the transaction
	next   uint64
}

func newTxSource(seed uint64, size int) *txSource {
	filler := make([]byte, 1<<20)
	rand.New(rand.NewSource(int64(seed))).Read(filler)
	return &txSource{seed: seed, size: size, filler: filler, buf: make([]byte, size)}
}

func (s *txSource) tag(id uint64) uint64 { return splitmix64(s.seed ^ splitmix64(id)) }

func (s *txSource) make() (uint64, []byte) {
	id := s.next
	s.next++
	return id, s.bytes(id)
}

// bytes rebuilds transaction id; a resubmission sends the same bytes.
func (s *txSource) bytes(id uint64) []byte {
	binary.LittleEndian.PutUint64(s.buf[0:8], id)
	binary.LittleEndian.PutUint64(s.buf[8:16], s.tag(id))
	body := s.size - txHeader
	off := int(splitmix64(id) % uint64(len(s.filler)-body))
	copy(s.buf[txHeader:], s.filler[off:off+body])
	return s.buf
}

// completion tells the generator that the observer committed a transaction.
type completion struct {
	id uint64
	at time.Time
}

// span is one bench-side trace record. Times are nanoseconds since the
// run began; Parent is the ID of the span that caused it (0 for none).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	OK     bool   `json:"ok"`
}

// phaseLog collects the spans of a run's phases (set-up, warm-up, window,
// teardown), timed from the start of the run.
type phaseLog struct {
	epoch time.Time
	spans []span
}

func (p *phaseLog) add(name string, start, end time.Time) {
	p.spans = append(p.spans, span{Name: name, ID: uint64(len(p.spans))*2 + 1,
		Start: start.Sub(p.epoch).Nanoseconds(), End: end.Sub(p.epoch).Nanoseconds(), OK: true})
}

type pendingTx struct {
	start  time.Time // when the transaction was due
	sent   time.Time // when it was last handed to a replica
	sends  int       // how often it has been handed to one
	target int       // the replica that gets it
	client int       // closed-loop client that owns it; -1 in an open loop
	span   int       // index of its span; -1 untraced
}

// generator is the single load-generating goroutine's state.
type generator struct {
	w      rtWorkload
	sys    system
	src    *txSource
	win    window
	epoch  time.Time // zero point of span times
	traced bool

	outstanding map[uint64]pendingTx
	retry       []int // closed-loop clients whose last submit was refused
	nextTarget  int

	// Resolved within the window. Latencies are kept per one-second slice
	// (by resolution time) for the slice medians, and all together (sorted
	// once the run is over).
	sliceLatMs  [][]float64
	latenciesMs []float64
	lagsMs      []float64
	attempted   int64
	resubmitted int64 // resubmissions made within the window
	lost        int64 // transactions given up on within the window
	rejected    int64
	// resends counts the resubmissions of each transaction over the whole
	// run: the oracle allows a transaction that many extra commits.
	resends      map[uint64]int
	extraCommits int64     // commits of a transaction already committed or given up on
	resentDueS   []float64 // when each transaction resubmitted in the window was due, seconds into it
	submitNs     []float64
	spans        []span
}

// resolve accounts for a transaction whose outcome became known at t.
func (g *generator) resolve(t time.Time, latency time.Duration, ok bool) {
	if !g.win.holds(t) {
		return
	}
	g.attempted++
	if ok {
		ms := durMs(latency)
		slice := int(t.Sub(g.win.start) / time.Second)
		g.sliceLatMs[slice] = append(g.sliceLatMs[slice], ms)
		g.latenciesMs = append(g.latenciesMs, ms)
	}
}

// submit sends one fresh transaction timed from start.
func (g *generator) submit(client int, start time.Time) {
	var target int
	if client >= 0 {
		target = g.w.targets[client%len(g.w.targets)]
	} else {
		target = g.w.targets[g.nextTarget%len(g.w.targets)]
		g.nextTarget++
	}
	id, tx := g.src.make()
	t0 := time.Now()
	ok := g.sys.submit(target, tx)
	spanIdx := -1
	if g.traced {
		t1 := time.Now()
		// Span IDs: the transaction span is 2*id+2, its submit child 2*id+3.
		g.spans = append(g.spans,
			span{Name: "client.tx", ID: 2*id + 2, Start: start.Sub(g.epoch).Nanoseconds()},
			span{Name: "mempool.submit", ID: 2*id + 3, Parent: 2*id + 2,
				Start: t0.Sub(g.epoch).Nanoseconds(), End: t1.Sub(g.epoch).Nanoseconds(), OK: ok})
		spanIdx = len(g.spans) - 2
		if g.win.holds(t0) {
			g.submitNs = append(g.submitNs, float64(t1.Sub(t0).Nanoseconds()))
		}
	}
	if !ok {
		if g.win.holds(t0) {
			g.rejected++
		}
		g.resolve(t0, 0, false)
		g.closeSpan(spanIdx, t0, false)
		if client >= 0 {
			g.retry = append(g.retry, client)
		}
		return
	}
	g.outstanding[id] = pendingTx{start: start, sent: t0, sends: 1, target: target, client: client, span: spanIdx}
}

func (g *generator) closeSpan(idx int, at time.Time, ok bool) {
	if idx >= 0 {
		g.spans[idx].End = at.Sub(g.epoch).Nanoseconds()
		g.spans[idx].OK = ok
	}
}

// complete handles the observer committing transaction c.id.
func (g *generator) complete(c completion) {
	p, ok := g.outstanding[c.id]
	if !ok {
		g.extraCommits++
		return
	}
	delete(g.outstanding, c.id)
	g.resolve(c.at, c.at.Sub(p.start), true)
	g.closeSpan(p.span, c.at, true)
	if p.client >= 0 {
		g.submit(p.client, time.Now())
	}
}

// expire sends again every transaction that has waited resubmitAfter since
// it was last sent, and fails those already sent maxSubmissions times; a
// closed-loop client replaces a failed transaction with a fresh one.
func (g *generator) expire(now time.Time) {
	var overdue []uint64
	for id, p := range g.outstanding {
		if now.Sub(p.sent) > resubmitAfter {
			overdue = append(overdue, id)
		}
	}
	for _, id := range overdue {
		p := g.outstanding[id]
		if p.sends < maxSubmissions {
			// A refusal leaves the transaction overdue; the next tick retries.
			if g.sys.submit(p.target, g.src.bytes(id)) {
				p.sent, p.sends = now, p.sends+1
				g.outstanding[id] = p
				g.resends[id]++
				if g.win.holds(now) {
					g.resubmitted++
					g.resentDueS = append(g.resentDueS, p.start.Sub(g.win.start).Seconds())
				}
				if g.traced {
					g.spans = append(g.spans, span{Name: "client.resubmit", ID: resubmitSpanBase + uint64(len(g.spans)),
						Parent: g.spans[p.span].ID, Start: now.Sub(g.epoch).Nanoseconds(), End: now.Sub(g.epoch).Nanoseconds(), OK: true})
				}
			}
			continue
		}
		delete(g.outstanding, id)
		if g.win.holds(now) {
			g.lost++
		}
		g.resolve(now, 0, false)
		g.closeSpan(p.span, now, false)
		if p.client >= 0 {
			g.submit(p.client, now)
		}
	}
	retry := g.retry
	g.retry = nil
	for _, client := range retry {
		g.submit(client, now)
	}
}

// run drives the load until stop closes. order is the closed-loop
// clients' seeded start order.
func (g *generator) run(order []int, done <-chan completion, stop <-chan struct{}) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()

	var due <-chan time.Time
	var timer *time.Timer
	var interval time.Duration
	var nextDue time.Time
	if g.w.rate > 0 {
		interval = time.Duration(float64(time.Second) / g.w.rate)
		nextDue = time.Now()
		timer = time.NewTimer(0)
		defer timer.Stop()
		due = timer.C
	} else {
		for _, client := range order {
			g.submit(client, time.Now())
		}
	}
	for {
		select {
		case <-stop:
			return
		case c := <-done:
			g.complete(c)
		case now := <-tick.C:
			g.expire(now)
		case <-due:
			// Every transaction due by now goes out, each timed from when
			// it was due, so a late generator shows as latency and as lag.
			for now := time.Now(); !nextDue.After(now); now = time.Now() {
				if g.win.holds(nextDue) {
					g.lagsMs = append(g.lagsMs, durMs(now.Sub(nextDue)))
				}
				g.submit(-1, nextDue)
				nextDue = nextDue.Add(interval)
			}
			timer.Reset(time.Until(nextDue))
		}
	}
}

// roundID is one committed block as a non-observer replica reported it.
type roundID struct {
	round uint64
	id    string
}

// reader is the single commit-reading goroutine's state.
type reader struct {
	src *txSource
	win window

	lastRound uint64
	observed  map[uint64]string // observer's round -> block ID
	others    [][]roundID       // per non-observer replica
	seen      []uint8           // commit count by transaction id

	// Within the window, at the observer, per one-second slice and in all.
	sliceRounds, sliceBytes []int64
	rounds                  int64
	fast, slow, indirect    int64

	violations []string
}

func (r *reader) violate(format string, args ...any) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// observe checks and accounts one commit of replica 0, then reports its
// transactions to the generator.
func (r *reader) observe(c banyan.Commit, done chan<- completion, genDone <-chan struct{}) {
	at := time.Now()
	if c.Round <= r.lastRound {
		r.violate("observer committed round %d after round %d", c.Round, r.lastRound)
	}
	r.lastRound = c.Round
	r.observed[c.Round] = c.BlockID
	if r.win.holds(at) {
		slice := int(at.Sub(r.win.start) / time.Second)
		r.sliceRounds[slice]++
		r.sliceBytes[slice] += int64(c.PayloadBytes)
		r.rounds++
		switch c.Path {
		case banyan.PathFast:
			r.fast++
		case banyan.PathSlow:
			r.slow++
		default:
			r.indirect++
		}
	}
	for _, tx := range c.Transactions {
		if len(tx) != r.src.size {
			r.violate("round %d: committed a %d-byte transaction, submitted %d-byte ones", c.Round, len(tx), r.src.size)
			continue
		}
		id := binary.LittleEndian.Uint64(tx[0:8])
		if binary.LittleEndian.Uint64(tx[8:16]) != r.src.tag(id) {
			r.violate("round %d: committed transaction %d does not carry its tag", c.Round, id)
			continue
		}
		for uint64(len(r.seen)) <= id {
			r.seen = append(r.seen, make([]uint8, 4096)...)
		}
		if r.seen[id] < 255 {
			r.seen[id]++
		}
		select {
		case done <- completion{id: id, at: at}:
		case <-genDone:
		}
	}
}

// run drains every commit stream until all have closed. chans[0] is the
// observer's; at most four streams are supported (n = 4 everywhere).
func (r *reader) run(chans []<-chan banyan.Commit, done chan<- completion, genDone <-chan struct{}) {
	var ch [replicas]<-chan banyan.Commit
	copy(ch[:], chans)
	r.others = make([][]roundID, replicas)
	follow := func(i int, c banyan.Commit, ok bool) {
		if !ok {
			ch[i] = nil
			return
		}
		if n := len(r.others[i]); n > 0 && c.Round <= r.others[i][n-1].round {
			r.violate("replica %d committed round %d after round %d", i, c.Round, r.others[i][n-1].round)
		}
		r.others[i] = append(r.others[i], roundID{c.Round, c.BlockID})
	}
	for ch[0] != nil || ch[1] != nil || ch[2] != nil || ch[3] != nil {
		select {
		case c, ok := <-ch[0]:
			if !ok {
				ch[0] = nil
				continue
			}
			r.observe(c, done, genDone)
		case c, ok := <-ch[1]:
			follow(1, c, ok)
		case c, ok := <-ch[2]:
			follow(2, c, ok)
		case c, ok := <-ch[3]:
			follow(3, c, ok)
		}
	}
}

// rtDetail is everything a real-time run measured; the end-to-end and
// per-layer reports are both derived from it.
type rtDetail struct {
	w            rtWorkload
	constructMs  float64 // median over the set-ups
	firstCommMs  float64 // median over the set-ups
	setupS       float64
	cost         windowCost
	liveHeapMB   float64
	gen          *generator
	rd           *reader
	counters     []map[string]int64
	sys          system
	storeMaxMB   float64
	restartMs    float64
	catchupS     float64
	violations   []string
	phases       phaseLog
	submittedIDs uint64
}

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// runRealtime runs one real-time workload once.
func runRealtime(name string, w rtWorkload, seed uint64, seconds int, traced bool, outDir string) (*rtDetail, error) {
	d := &rtDetail{w: w, phases: phaseLog{epoch: time.Now()}}
	phase := d.phases.add

	// Set-up, several times: assemble, boot, wait for the first committed
	// round. The last deployment is the one measured.
	var (
		sys        system
		firstAt    time.Time
		firstRound uint64
		construct  []float64
		firstComm  []float64
		walDirs    []string
	)
	defer func() {
		for _, dir := range walDirs {
			os.RemoveAll(dir)
		}
	}()
	for k := 0; k < setupRepeats; k++ {
		walDir := ""
		if w.wal {
			walDir = walDirFor(outDir, name, k)
			walDirs = append(walDirs, walDir)
		}
		t0 := time.Now()
		s, err := w.build(seed, traced, walDir)
		if err != nil {
			return nil, fmt.Errorf("%s: assembling the deployment: %w", name, err)
		}
		built := time.Now()
		if err := s.start(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		select {
		case c, ok := <-s.commits()[0]:
			if !ok {
				s.stop()
				return nil, fmt.Errorf("%s: commit stream closed before the first round", name)
			}
			firstRound = c.Round
		case <-time.After(firstCommitTimeout):
			s.stop()
			return nil, fmt.Errorf("%s: no committed round within %v of boot", name, firstCommitTimeout)
		}
		firstAt = time.Now()
		construct = append(construct, durMs(built.Sub(t0)))
		firstComm = append(firstComm, durMs(firstAt.Sub(built)))
		phase("setup.construct", t0, built)
		phase("setup.first_commit", built, firstAt)
		if k < setupRepeats-1 {
			s.stop()
			continue
		}
		sys = s
	}
	d.sys = sys
	d.constructMs, d.firstCommMs = median(construct), median(firstComm)
	if w.victim >= 0 {
		// Down before the load starts: the warm-up is degraded like the
		// window, and no transaction is in flight when the victim dies (the
		// proposal it orphans would take them along and they would expire
		// two seconds later, inside the window).
		if err := sys.crash(w.victim); err != nil {
			sys.stop()
			return nil, fmt.Errorf("%s: crashing replica %d: %w", name, w.victim, err)
		}
	}

	win := window{start: firstAt.Add(warmup)}
	win.end = win.start.Add(time.Duration(seconds) * time.Second)

	src := newTxSource(seed, w.txSize)
	gen := &generator{w: w, sys: sys, src: src, win: win, epoch: d.phases.epoch, traced: traced,
		outstanding: make(map[uint64]pendingTx), resends: make(map[uint64]int), nextTarget: int(seed % uint64(len(w.targets))),
		sliceLatMs: make([][]float64, seconds)}
	rd := &reader{src: src, win: win, lastRound: firstRound, observed: make(map[uint64]string),
		sliceRounds: make([]int64, seconds), sliceBytes: make([]int64, seconds)}
	d.gen, d.rd = gen, rd

	// A block of the byte-heavy workload carries 15 transactions and a few
	// blocks can commit back to back; 1024 keeps the reader from waiting on
	// the generator through such a burst.
	done := make(chan completion, 1024)
	stopGen := make(chan struct{})
	genDone := make(chan struct{})
	readDone := make(chan struct{})
	order := rand.New(rand.NewSource(int64(seed))).Perm(w.clients)
	go func() {
		defer close(genDone)
		gen.run(order, done, stopGen)
	}()
	go func() {
		defer close(readDone)
		rd.run(sys.commits(), done, genDone)
	}()
	// Every exit below stops the generator first, then the deployment,
	// then waits for the reader to see its streams close.
	genStopped, sysStopped := false, false
	stopGenerator := func() {
		if !genStopped {
			genStopped = true
			close(stopGen)
			<-genDone
		}
	}
	stopSystem := func() {
		stopGenerator()
		if !sysStopped {
			sysStopped = true
			sys.stop()
			<-readDone
		}
	}
	defer stopSystem()

	sleepUntil(win.start)
	heap := startHeapSampler()
	snaps := []snapshot{takeSnapshot()}
	phase("warmup", firstAt, snaps[0].at)
	d.setupS = (d.constructMs+d.firstCommMs)/1e3 + snaps[0].at.Sub(firstAt).Seconds()
	for i := 1; i <= seconds; i++ {
		sleepUntil(win.start.Add(time.Duration(i) * time.Second))
		snaps = append(snaps, takeSnapshot())
		if !traced || !w.dissem {
			continue
		}
		// The dissemination store's size is a gauge; its peak needs sampling.
		for r := 0; r < replicas; r++ {
			if o := sys.observer(r); o != nil && r != w.victim {
				o.Collect()
				d.storeMaxMB = max(d.storeMaxMB, float64(o.DissemStoreBytes.Load())/(1<<20))
			}
		}
	}
	d.liveHeapMB = heap.medianMB()
	phase("window", snaps[0].at, snaps[seconds].at)
	stopGenerator()

	if w.victim >= 0 {
		t0 := time.Now()
		if err := sys.restart(w.victim); err != nil {
			return nil, fmt.Errorf("%s: restarting replica %d: %w", name, w.victim, err)
		}
		restarted := time.Now()
		d.restartMs = durMs(restarted.Sub(t0))
		d.catchupS = restartGrace.Seconds()
		caughtUp := false
		for time.Since(restarted) < restartGrace {
			time.Sleep(5 * time.Millisecond)
			if caughtUp || !traced {
				continue
			}
			// The round gauges exist only with observers on.
			if sys.observer(w.victim).Round.Load() >= sys.observer(0).Round.Load() {
				caughtUp = true
				d.catchupS = time.Since(restarted).Seconds()
			}
		}
		phase("recovery", t0, time.Now())
	}
	t0 := time.Now()
	stopSystem()
	phase("stop", t0, time.Now())

	d.cost = costOf(snaps, rd.sliceRounds, rd.sliceBytes)
	sort.Float64s(gen.latenciesMs) // the generator has stopped; p99 wants them sorted
	d.submittedIDs = src.next
	for i := 0; i < replicas; i++ {
		d.counters = append(d.counters, sys.counters(i))
	}
	d.violations = checkRealtime(d)
	return d, nil
}

// slicePercentile is the median over the window's one-second slices of
// each slice's p-th latency percentile. A stall of the host for a second
// or two owns the whole window's tail but moves only those slices.
func (d *rtDetail) slicePercentile(p float64) float64 {
	var per []float64
	for _, lat := range d.gen.sliceLatMs {
		if len(lat) == 0 {
			continue
		}
		sorted := append([]float64(nil), lat...)
		sort.Float64s(sorted)
		per = append(per, percentile(sorted, p))
	}
	return median(per)
}

// endToEndValues derives the untraced report from a run.
func (d *rtDetail) endToEndValues() values {
	return values{
		"setup_s":               d.setupS,
		"commit_latency_p50_ms": d.slicePercentile(50),
		"commit_latency_p95_ms": d.slicePercentile(95),
		"committed_mb_per_s":    d.cost.mbPerS,
		"alloc_kb_per_round":    d.cost.allocKBPerRnd,
		"live_heap_mb":          d.liveHeapMB,
	}
}

func (d *rtDetail) result() *runResult {
	var notes []string
	if n := len(d.gen.resentDueS); n > 0 {
		notes = append(notes, fmt.Sprintf("%d resubmissions of transactions not committed within %v (%d given up on, %d extra commits); due at window second %.2f",
			n, resubmitAfter, d.gen.lost, d.gen.extraCommits, d.gen.resentDueS))
	}
	return &runResult{
		Notes:      notes,
		Correct:    len(d.violations) == 0,
		Attempted:  d.gen.attempted,
		Failed:     d.gen.attempted - int64(len(d.gen.latenciesMs)),
		Samples:    len(d.gen.latenciesMs),
		Values:     d.endToEndValues(),
		HostBound:  d.cost.hostBoundValues(),
		Violations: d.violations,
	}
}
