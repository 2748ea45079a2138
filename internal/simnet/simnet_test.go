package simnet

import (
	"fmt"
	"testing"
	"time"

	"banyan/internal/protocol"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// echoEngine is a minimal engine: on start the designated sender
// broadcasts one message per tick; every receiver counts arrivals.
type echoEngine struct {
	id       types.ReplicaID
	sender   bool
	size     int
	interval time.Duration
	limit    int

	sent     int
	received []recvRecord
}

type recvRecord struct {
	from types.ReplicaID
	at   time.Time
	size int
}

func (e *echoEngine) ID() types.ReplicaID       { return e.id }
func (e *echoEngine) Protocol() string          { return "echo" }
func (e *echoEngine) Metrics() map[string]int64 { return nil }

func (e *echoEngine) Start(now time.Time) []protocol.Action {
	if !e.sender {
		return nil
	}
	return e.emit(now)
}

func (e *echoEngine) emit(now time.Time) []protocol.Action {
	if e.sent >= e.limit {
		return nil
	}
	e.sent++
	payload := types.SyntheticPayload(e.size, uint64(e.sent))
	msg := &types.Proposal{Block: types.NewBlock(types.Round(e.sent), e.id, 0, types.BlockID{}, payload)}
	return []protocol.Action{
		protocol.Broadcast{Msg: msg},
		protocol.SetTimer{
			ID: protocol.TimerID{Round: types.Round(e.sent), Kind: protocol.TimerPropose},
			At: now.Add(e.interval),
		},
	}
}

func (e *echoEngine) HandleMessage(from types.ReplicaID, msg types.Message, now time.Time) []protocol.Action {
	e.received = append(e.received, recvRecord{from: from, at: now, size: types.WireSize(msg)})
	return nil
}

func (e *echoEngine) HandleTimer(_ protocol.TimerID, now time.Time) []protocol.Action {
	return e.emit(now)
}

func echoNet(t *testing.T, n int, opts Options, senderSize, count int) (*Network, []*echoEngine) {
	t.Helper()
	engines := make([]protocol.Engine, n)
	echoes := make([]*echoEngine, n)
	for i := 0; i < n; i++ {
		echoes[i] = &echoEngine{
			id:       types.ReplicaID(i),
			sender:   i == 0,
			size:     senderSize,
			interval: 10 * time.Millisecond,
			limit:    count,
		}
		engines[i] = echoes[i]
	}
	net, err := New(engines, opts, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return net, echoes
}

func TestPropagationDelay(t *testing.T) {
	const oneWay = 25 * time.Millisecond
	net, echoes := echoNet(t, 3, Options{Topology: wan.Uniform(3, oneWay)}, 100, 1)
	net.Run(time.Second)
	for i := 1; i < 3; i++ {
		recv := echoes[i].received
		if len(recv) != 1 {
			t.Fatalf("replica %d received %d messages", i, len(recv))
		}
		if got := recv[0].at.Sub(Epoch); got != oneWay {
			t.Fatalf("replica %d delivery at %v, want %v", i, got, oneWay)
		}
	}
}

func TestBandwidthSerialization(t *testing.T) {
	const (
		oneWay = 10 * time.Millisecond
		bw     = 1e6 // 1 MB/s
		size   = 100_000
	)
	net, echoes := echoNet(t, 3, Options{
		Topology:     wan.Uniform(3, oneWay),
		BandwidthBps: bw,
	}, size, 1)
	net.Run(time.Second)
	// The sender transmits to peer 1 first, then peer 2: each copy takes
	// ~size/bw = 100ms of uplink (plus header bytes).
	t1 := echoes[1].received[0].at.Sub(Epoch)
	t2 := echoes[2].received[0].at.Sub(Epoch)
	txTime := time.Duration(float64(echoes[1].received[0].size) / bw * float64(time.Second))
	want1 := txTime + oneWay
	if diff := t1 - want1; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("first delivery at %v, want ~%v", t1, want1)
	}
	if t2-t1 < txTime-time.Millisecond {
		t.Fatalf("second copy arrived %v after first; expected ≥ %v (serialized uplink)", t2-t1, txTime)
	}
}

func TestReceiverProcessingQueue(t *testing.T) {
	const oneWay = 5 * time.Millisecond
	net, echoes := echoNet(t, 2, Options{
		Topology:    wan.Uniform(2, oneWay),
		ProcRateBps: 1e6,
		ProcFixed:   time.Millisecond,
	}, 50_000, 3)
	net.Run(time.Second)
	recv := echoes[1].received
	if len(recv) != 3 {
		t.Fatalf("received %d, want 3", len(recv))
	}
	// Each ~50KB message needs ~50ms of receiver CPU + 1ms fixed; sent at
	// 10ms intervals, so arrivals queue: gaps of at least ~procTime.
	proc := time.Duration(float64(recv[0].size)/1e6*float64(time.Second)) + time.Millisecond
	for i := 1; i < 3; i++ {
		gap := recv[i].at.Sub(recv[i-1].at)
		if gap < proc-time.Millisecond {
			t.Fatalf("delivery gap %v below processing time %v", gap, proc)
		}
	}
}

func TestPerLinkFIFO(t *testing.T) {
	// Strong jitter but FIFO preserved by default.
	net, echoes := echoNet(t, 2, Options{
		Topology:   wan.Uniform(2, 20*time.Millisecond),
		JitterFrac: 0.9,
		Seed:       3,
	}, 100, 50)
	net.Run(5 * time.Second)
	recv := echoes[1].received
	if len(recv) != 50 {
		t.Fatalf("received %d, want 50", len(recv))
	}
	for i := 1; i < len(recv); i++ {
		if recv[i].at.Before(recv[i-1].at) {
			t.Fatal("per-link FIFO violated")
		}
	}
}

func TestCrashStopsTraffic(t *testing.T) {
	net, echoes := echoNet(t, 3, Options{Topology: wan.Uniform(3, time.Millisecond)}, 100, 100)
	net.CrashAt(0, 205*time.Millisecond) // sender dies after ~21 sends
	net.Run(2 * time.Second)
	got := len(echoes[1].received)
	if got < 15 || got > 25 {
		t.Fatalf("received %d messages; crash at 205ms should allow ~21", got)
	}
	if net.Stats().Crashes != 1 {
		t.Fatalf("stats crashes = %d", net.Stats().Crashes)
	}
}

func TestFilterDropsMessages(t *testing.T) {
	dropped := 0
	net, echoes := echoNet(t, 3, Options{
		Topology: wan.Uniform(3, time.Millisecond),
		Filter: func(from, to types.ReplicaID, _ types.Message, _ time.Time) bool {
			if to == 2 {
				dropped++
				return false
			}
			return true
		},
	}, 100, 10)
	net.Run(time.Second)
	if len(echoes[1].received) != 10 {
		t.Fatalf("replica 1 received %d", len(echoes[1].received))
	}
	if len(echoes[2].received) != 0 {
		t.Fatalf("replica 2 received %d despite the filter", len(echoes[2].received))
	}
	if net.Stats().Dropped != 10 || dropped != 10 {
		t.Fatalf("dropped = %d (filter saw %d)", net.Stats().Dropped, dropped)
	}
	// A dropped message is not sent: only the ten to replica 1 count, all
	// of them under their kind.
	st := net.Stats()
	if want := (KindStats{Messages: 10, Bytes: st.Bytes}); st.Messages != 10 || st.ByKind[types.MsgProposal] != want {
		t.Fatalf("sent %d messages, by kind %+v; want 10, all proposals", st.Messages, st.ByKind)
	}
}

// TestDeterminism: identical seeds produce identical delivery schedules;
// different seeds (with jitter) do not.
func TestDeterminism(t *testing.T) {
	run := func(seed uint64) []time.Duration {
		net, echoes := echoNet(t, 3, Options{
			Topology:   wan.Uniform(3, 20*time.Millisecond),
			JitterFrac: 0.3,
			Seed:       seed,
		}, 1000, 20)
		net.Run(2 * time.Second)
		var times []time.Duration
		for _, r := range echoes[1].received {
			times = append(times, r.at.Sub(Epoch))
		}
		return times
	}
	a, b, c := run(7), run(7), run(8)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("same seed produced different delivery schedules")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical schedules despite jitter")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	net, _ := echoNet(t, 2, Options{Topology: wan.Uniform(2, time.Millisecond)}, 10, 1)
	net.Run(3 * time.Second)
	if net.Elapsed() != 3*time.Second {
		t.Fatalf("Elapsed = %v, want 3s", net.Elapsed())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{}, Hooks{}); err == nil {
		t.Fatal("nil topology accepted")
	}
	e := &echoEngine{id: 3}
	if _, err := New([]protocol.Engine{e}, Options{Topology: wan.Uniform(1, 0)}, Hooks{}); err == nil {
		t.Fatal("mismatched engine ID accepted")
	}
}

// sinkEngine swallows everything it is handed.
type sinkEngine struct {
	id       types.ReplicaID
	received int
}

func (e *sinkEngine) ID() types.ReplicaID                                       { return e.id }
func (e *sinkEngine) Protocol() string                                          { return "sink" }
func (e *sinkEngine) Metrics() map[string]int64                                 { return nil }
func (e *sinkEngine) Start(time.Time) []protocol.Action                         { return nil }
func (e *sinkEngine) HandleTimer(protocol.TimerID, time.Time) []protocol.Action { return nil }
func (e *sinkEngine) HandleMessage(types.ReplicaID, types.Message, time.Time) []protocol.Action {
	e.received++
	return nil
}

// TestAllocRegressionBroadcastDeliver: in steady state the simulator moves
// an already-built message from a broadcast to its n-1 deliveries without
// allocating — dispatched events are recycled, under the full link model
// (bandwidth, jitter, FIFO floor, receiver processing), and every send is
// counted under its kind.
func TestAllocRegressionBroadcastDeliver(t *testing.T) {
	const n = 19
	engines := make([]protocol.Engine, n)
	sinks := make([]*sinkEngine, n)
	for i := range engines {
		sinks[i] = &sinkEngine{id: types.ReplicaID(i)}
		engines[i] = sinks[i]
	}
	net, err := New(engines, Options{
		Topology: wan.Uniform(n, 20*time.Millisecond), BandwidthBps: 1e9, JitterFrac: 0.05,
		ProcRateBps: 1e9, ProcFixed: 10 * time.Microsecond, Seed: 1,
	}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	acts := []protocol.Action{protocol.Broadcast{Msg: &types.VoteMsg{Votes: []types.Vote{{Kind: types.VoteFast, Round: 1}}}}}
	round := func() {
		for i := 0; i < n; i++ {
			net.apply(types.ReplicaID(i), acts)
		}
		net.Run(net.Elapsed() + time.Second)
	}
	round() // grows the event heap and fills the free list
	if got := testing.AllocsPerRun(20, round); got != 0 {
		t.Fatalf("a round of %d broadcasts allocates %.0f times in steady state, want 0", n, got)
	}
	if want := 22 * n * (n - 1); sinks[3].received*n != want || !net.Idle() {
		t.Fatalf("replica 3 received %d messages, want %d; idle %v", sinks[3].received, want/n, net.Idle())
	}
	size := int64(types.WireSize(acts[0].(protocol.Broadcast).Msg))
	if st := net.Stats(); st.ByKind[types.MsgVote] != (KindStats{Messages: st.Messages, Bytes: st.Messages * size}) {
		t.Fatalf("votes by kind %+v, want all %d messages of %d bytes", st.ByKind[types.MsgVote], st.Messages, size)
	}
}
