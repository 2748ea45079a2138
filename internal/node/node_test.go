package node

import (
	"errors"
	"sync"
	"testing"
	"time"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// scriptEngine is a controllable engine for node tests.
type scriptEngine struct {
	mu       sync.Mutex
	id       types.ReplicaID
	onStart  []protocol.Action
	onMsg    func(from types.ReplicaID, msg types.Message, now time.Time) []protocol.Action
	onTimer  func(id protocol.TimerID, now time.Time) []protocol.Action
	received []types.Message
	fired    []protocol.TimerID
}

func (s *scriptEngine) ID() types.ReplicaID       { return s.id }
func (s *scriptEngine) Protocol() string          { return "script" }
func (s *scriptEngine) Metrics() map[string]int64 { return map[string]int64{"ok": 1} }

func (s *scriptEngine) Start(time.Time) []protocol.Action { return s.onStart }

func (s *scriptEngine) HandleMessage(from types.ReplicaID, msg types.Message, now time.Time) []protocol.Action {
	s.mu.Lock()
	s.received = append(s.received, msg)
	s.mu.Unlock()
	if s.onMsg != nil {
		return s.onMsg(from, msg, now)
	}
	return nil
}

func (s *scriptEngine) HandleTimer(id protocol.TimerID, now time.Time) []protocol.Action {
	s.mu.Lock()
	s.fired = append(s.fired, id)
	s.mu.Unlock()
	if s.onTimer != nil {
		return s.onTimer(id, now)
	}
	return nil
}

func (s *scriptEngine) receivedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.received)
}

func (s *scriptEngine) firedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.fired)
}

// memTransport is an in-memory loopback transport for a single node.
type memTransport struct {
	in     chan Inbound
	mu     sync.Mutex
	sent   []types.Message
	closed bool
}

func newMemTransport() *memTransport {
	return &memTransport{in: make(chan Inbound, 64)}
}

func (m *memTransport) Send(_ types.ReplicaID, msg types.Message) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sent = append(m.sent, msg)
	return nil
}

func (m *memTransport) Broadcast(msg types.Message) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sent = append(m.sent, msg)
	return nil
}

func (m *memTransport) Receive() <-chan Inbound { return m.in }

func (m *memTransport) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed {
		m.closed = true
		close(m.in)
	}
	return nil
}

func (m *memTransport) sentCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sent)
}

func TestNodeDeliversMessagesToEngine(t *testing.T) {
	eng := &scriptEngine{id: 0}
	tr := newMemTransport()
	n, err := New(Config{Engine: eng, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	for i := 0; i < 5; i++ {
		tr.in <- Inbound{From: 1, Msg: &types.CertMsg{}}
	}
	waitFor(t, func() bool { return eng.receivedCount() == 5 })
}

func TestNodeExecutesBroadcasts(t *testing.T) {
	eng := &scriptEngine{
		id:      0,
		onStart: []protocol.Action{protocol.Broadcast{Msg: &types.CertMsg{}}},
		onMsg: func(types.ReplicaID, types.Message, time.Time) []protocol.Action {
			return []protocol.Action{protocol.Send{To: 2, Msg: &types.CertMsg{}}}
		},
	}
	tr := newMemTransport()
	n, _ := New(Config{Engine: eng, Transport: tr})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	tr.in <- Inbound{From: 1, Msg: &types.CertMsg{}}
	waitFor(t, func() bool { return tr.sentCount() == 2 })
}

func TestNodeTimerFires(t *testing.T) {
	// A shifted clock: fake epoch, real cadence — exercises the clock
	// injection path while letting timers actually elapse.
	realStart := time.Now()
	clock := func() time.Time {
		return time.Unix(1000, 0).Add(time.Since(realStart))
	}
	tid := protocol.TimerID{Round: 1, Kind: protocol.TimerPropose}
	eng := &scriptEngine{
		id:      0,
		onStart: []protocol.Action{protocol.SetTimer{ID: tid, At: time.Unix(1000, 0).Add(20 * time.Millisecond)}},
	}
	tr := newMemTransport()
	n, _ := New(Config{Engine: eng, Transport: tr, Clock: clock})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	// The timer is 20ms of fake time away, and the real timer waits that
	// long too (the node computes the wait from the injected clock).
	waitFor(t, func() bool { return eng.firedCount() == 1 })
	if eng.fired[0] != tid {
		t.Fatalf("fired %v, want %v", eng.fired[0], tid)
	}
}

func TestNodeTimerSuperseded(t *testing.T) {
	tid := protocol.TimerID{Round: 2, Kind: protocol.TimerNotarize}
	eng := &scriptEngine{id: 0}
	// Two SetTimer actions with the same ID: only the later generation may
	// fire.
	eng.onStart = []protocol.Action{
		protocol.SetTimer{ID: tid, At: time.Now().Add(5 * time.Millisecond)},
		protocol.SetTimer{ID: tid, At: time.Now().Add(15 * time.Millisecond)},
	}
	tr := newMemTransport()
	n, _ := New(Config{Engine: eng, Transport: tr})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	time.Sleep(80 * time.Millisecond)
	if got := eng.firedCount(); got != 1 {
		t.Fatalf("timer fired %d times, want 1 (superseded generation must not fire)", got)
	}
}

func TestNodeCommitsFlow(t *testing.T) {
	blocks := []*types.Block{types.NewBlock(1, 0, 0, types.Genesis().ID(), types.Payload{})}
	eng := &scriptEngine{
		id: 0,
		onMsg: func(types.ReplicaID, types.Message, time.Time) []protocol.Action {
			return []protocol.Action{protocol.Commit{Blocks: blocks, Explicit: protocol.FinalizeFast}}
		},
	}
	tr := newMemTransport()
	commits := make(chan CommitEvent, 4)
	n, _ := New(Config{Engine: eng, Transport: tr, Commits: commits})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	tr.in <- Inbound{From: 1, Msg: &types.CertMsg{}}
	select {
	case ev := <-commits:
		if len(ev.Blocks) != 1 || ev.Explicit != protocol.FinalizeFast {
			t.Fatalf("unexpected commit %+v", ev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit not delivered")
	}
}

func TestNodeStopsOnSafetyFault(t *testing.T) {
	eng := &scriptEngine{
		id: 0,
		onMsg: func(types.ReplicaID, types.Message, time.Time) []protocol.Action {
			return []protocol.Action{protocol.SafetyFault{Err: errors.New("conflict")}}
		},
	}
	tr := newMemTransport()
	var faultMu sync.Mutex
	var faults []error
	n, _ := New(Config{Engine: eng, Transport: tr, OnFault: func(err error) {
		faultMu.Lock()
		faults = append(faults, err)
		faultMu.Unlock()
	}})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	tr.in <- Inbound{From: 1, Msg: &types.CertMsg{}}
	waitFor(t, func() bool {
		faultMu.Lock()
		defer faultMu.Unlock()
		return len(faults) == 1
	})
	n.Stop() // must not hang: the loop already exited
	if n.Metrics() == nil {
		t.Fatal("metrics unavailable after stop")
	}
}

func TestNodeStopTwice(t *testing.T) {
	eng := &scriptEngine{id: 0}
	n, _ := New(Config{Engine: eng, Transport: newMemTransport()})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	n.Stop()
	n.Stop() // idempotent
	if err := n.Start(); err == nil {
		t.Fatal("restart accepted")
	}
}

// TestStopBeforeStart: Stop on a node that never started returns at once
// and closes the transport, and a later Start fails.
func TestStopBeforeStart(t *testing.T) {
	tr := newMemTransport()
	n, err := New(Config{Engine: &scriptEngine{id: 0}, Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() {
		n.Stop()
		n.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop on a node that never started did not return")
	}
	tr.mu.Lock()
	closed := tr.closed
	tr.mu.Unlock()
	if !closed {
		t.Fatal("Stop left the transport open")
	}
	if err := n.Start(); err == nil {
		t.Fatal("Start after Stop accepted")
	}
}

func TestNodeValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := New(Config{Engine: &scriptEngine{}}); err == nil {
		t.Fatal("nil transport accepted")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
