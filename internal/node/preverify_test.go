package node

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// countingPreverifier records every message it sees, with a configurable
// per-message delay to shake out ordering races in the pipeline.
type countingPreverifier struct {
	mu    sync.Mutex
	seen  []types.Message
	delay time.Duration
}

func (p *countingPreverifier) PreverifyMessage(msg types.Message) {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	p.mu.Lock()
	p.seen = append(p.seen, msg)
	p.mu.Unlock()
}

// procs sets GOMAXPROCS to n for the rest of the test: the preverify
// stage sizes itself from it. A test that calls it must not run in
// parallel.
func procs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func (p *countingPreverifier) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.seen)
}

// TestPreverifyStageDeliversInOrder: with several workers racing, every
// message must still reach the engine, exactly once, in arrival order.
func TestPreverifyStageDeliversInOrder(t *testing.T) {
	eng := &scriptEngine{id: 0}
	tr := newMemTransport()
	pv := &countingPreverifier{delay: 100 * time.Microsecond}
	procs(t, 4)
	n, err := New(Config{Engine: eng, Transport: tr, Preverifier: pv})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	const total = 64
	msgs := make([]*types.SyncRequest, total)
	for i := range msgs {
		msgs[i] = &types.SyncRequest{From: types.Round(i + 1)}
		tr.in <- Inbound{From: 1, Msg: msgs[i]}
	}
	waitFor(t, func() bool { return eng.receivedCount() == total })

	if got := pv.count(); got != total {
		t.Fatalf("preverifier saw %d messages, want %d", got, total)
	}
	eng.mu.Lock()
	defer eng.mu.Unlock()
	for i, m := range eng.received {
		if m != msgs[i] {
			t.Fatalf("delivery %d out of order: got %v, want %v",
				i, m.(*types.SyncRequest).From, msgs[i].From)
		}
	}
}

// TestPreverifyRunsBeforeDelivery: by the time the engine handles a
// message, that message's preverification must have completed (the
// stage's whole point is that the engine finds a warm cache).
func TestPreverifyRunsBeforeDelivery(t *testing.T) {
	pv := &countingPreverifier{}
	var (
		mu         sync.Mutex
		violations int
	)
	eng := &scriptEngine{id: 0}
	eng.onMsg = func(_ types.ReplicaID, msg types.Message, _ time.Time) []protocol.Action {
		pv.mu.Lock()
		seen := false
		for _, m := range pv.seen {
			if m == msg {
				seen = true
				break
			}
		}
		pv.mu.Unlock()
		if !seen {
			mu.Lock()
			violations++
			mu.Unlock()
		}
		return nil
	}
	tr := newMemTransport()
	procs(t, 4)
	n, err := New(Config{Engine: eng, Transport: tr, Preverifier: pv})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	const total = 16
	for i := 0; i < total; i++ {
		tr.in <- Inbound{From: 1, Msg: &types.SyncRequest{From: types.Round(i)}}
	}
	waitFor(t, func() bool { return eng.receivedCount() == total })
	mu.Lock()
	defer mu.Unlock()
	if violations > 0 {
		t.Fatalf("%d messages reached the engine before preverification", violations)
	}
}

// TestPreverifyDisabled: on a single processor, where nothing could
// overlap, the stage is skipped even when a Preverifier is configured.
func TestPreverifyDisabled(t *testing.T) {
	eng := &scriptEngine{id: 0}
	tr := newMemTransport()
	pv := &countingPreverifier{}
	procs(t, 1)
	n, err := New(Config{Engine: eng, Transport: tr, Preverifier: pv})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	tr.in <- Inbound{From: 1, Msg: &types.CertMsg{}}
	waitFor(t, func() bool { return eng.receivedCount() == 1 })
	if pv.count() != 0 {
		t.Fatalf("preverifier ran %d times despite GOMAXPROCS=1", pv.count())
	}
}

// quietEngine counts what it handles and allocates nothing doing so.
type quietEngine struct {
	scriptEngine
	handled, fired atomic.Int64
}

func (q *quietEngine) HandleMessage(types.ReplicaID, types.Message, time.Time) []protocol.Action {
	q.handled.Add(1)
	return nil
}

func (q *quietEngine) HandleTimer(protocol.TimerID, time.Time) []protocol.Action {
	q.fired.Add(1)
	return nil
}

// quietPreverifier counts the messages it sees, allocation-free.
type quietPreverifier struct{ seen atomic.Int64 }

func (p *quietPreverifier) PreverifyMessage(types.Message) { p.seen.Add(1) }

// TestAllocRegressionPreverifyStage: a message through a running
// preverify stage — dispatcher, worker, reorderer, event loop — costs no
// allocation: the stage reuses a fixed ring of slots and their done
// channels.
func TestAllocRegressionPreverifyStage(t *testing.T) {
	const total = 10000
	eng, pv, tr := &quietEngine{}, &quietPreverifier{}, newMemTransport()
	procs(t, 4)
	n, err := New(Config{Engine: eng, Transport: tr, Preverifier: pv})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	msg := &types.SyncRequest{From: 1}
	deliver := func(k int64) {
		want := eng.handled.Load() + k
		for i := int64(0); i < k; i++ {
			tr.in <- Inbound{From: 1, Msg: msg}
		}
		deadline := time.Now().Add(10 * time.Second)
		for eng.handled.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d messages reached the engine", eng.handled.Load(), want)
			}
			runtime.Gosched()
		}
	}
	deliver(100) // the stage's goroutines grow their stacks
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deliver(total)
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / total; per > 0.01 {
		t.Fatalf("%.3f allocations per message through the preverify stage, want <= 0.01", per)
	}
	if got := pv.seen.Load(); got != total+100 {
		t.Fatalf("preverifier saw %d messages, want %d", got, total+100)
	}
}

// TestAllocRegressionSetTimer: setting timers — one of them superseded
// before it is due — and firing them costs nothing once the heap and the
// generation map have their room.
func TestAllocRegressionSetTimer(t *testing.T) {
	eng := &quietEngine{}
	n, err := New(Config{Engine: eng, Transport: newMemTransport()})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Unix(100, 0)
	notar := protocol.TimerID{Round: 1, Kind: protocol.TimerNotarize}
	acts := []protocol.Action{
		protocol.SetTimer{ID: notar, At: at.Add(-time.Millisecond)},
		protocol.SetTimer{ID: protocol.TimerID{Round: 1, Kind: protocol.TimerResend}, At: at},
		protocol.SetTimer{ID: notar, At: at}, // supersedes the first
	}
	const runs = 100
	if got := testing.AllocsPerRun(runs, func() {
		if !n.apply(acts) || !n.fireTimers(at) {
			t.Fatal("node stopped")
		}
	}); got != 0 {
		t.Fatalf("apply + fire of SetTimer allocates %.0f times, want 0", got)
	}
	if got := eng.fired.Load(); got != 2*(runs+1) { // AllocsPerRun makes a warm-up call
		t.Fatalf("%d timers fired over %d runs, want 2 per run", got, runs+1)
	}
	if len(n.timers) != 0 || len(n.timerGen) != 0 {
		t.Fatalf("%d timers and %d generations left after firing all", len(n.timers), len(n.timerGen))
	}
}

// TestTimerHeapOrder: timers fire earliest first, whatever order they were
// set in.
func TestTimerHeapOrder(t *testing.T) {
	var h timerHeap
	base := time.Unix(0, 0)
	for _, ms := range []int{5, 1, 9, 3, 7, 3, 0, 8, 2, 6, 4} {
		h.push(pendingTimer{at: base.Add(time.Duration(ms) * time.Millisecond)})
	}
	for prev := base; len(h) > 0; h.pop() {
		if h[0].at.Before(prev) {
			t.Fatalf("timer at %v popped after one at %v", h[0].at.Sub(base), prev.Sub(base))
		}
		prev = h[0].at
	}
}

// TestPreverifyStopMidStream: stopping the node while the pipeline is
// full must not deadlock or panic.
func TestPreverifyStopMidStream(t *testing.T) {
	eng := &scriptEngine{id: 0}
	tr := newMemTransport()
	pv := &countingPreverifier{delay: time.Millisecond}
	procs(t, 4)
	n, err := New(Config{Engine: eng, Transport: tr, Preverifier: pv})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		tr.in <- Inbound{From: 1, Msg: &types.SyncRequest{From: types.Round(i)}}
	}
	done := make(chan struct{})
	go func() { n.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop deadlocked with a full preverification pipeline")
	}
}
