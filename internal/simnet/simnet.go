// Package simnet is a deterministic discrete-event network simulator for
// consensus engines.
//
// It substitutes for the paper's AWS deployments (section 9.2):
// replicas are protocol.Engine instances driven by a virtual clock, links
// have configurable propagation delay, jitter and sender-side bandwidth,
// and crashes/partitions are injected as events. A 120-second wide-area
// experiment replays in milliseconds of wall time, and identical seeds
// replay identical executions, which the evaluation harness relies on.
//
// Per-link delivery is FIFO by default, matching TCP's no-reordering
// property that Remark 8.3 of the paper assumes; adversarial tests can
// enable reordering.
package simnet

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Topology models one-way propagation delays between replicas.
type Topology interface {
	// N is the number of replicas.
	N() int
	// Delay is the one-way propagation delay from one replica to another.
	Delay(from, to types.ReplicaID) time.Duration
}

// Options configure a simulation.
type Options struct {
	// Topology supplies propagation delays. Required.
	Topology Topology
	// BandwidthBps is each replica's uplink in bytes per second; messages
	// queue at the sender NIC and their serialization time adds to
	// delivery. Zero means infinite bandwidth.
	BandwidthBps float64
	// JitterFrac adds up to this fraction of the base propagation delay as
	// pseudo-random per-message jitter (e.g. 0.05 = up to +5%).
	JitterFrac float64
	// ProcRateBps models receiver-side processing throughput in bytes per
	// second: before its engine sees a message, a replica's CPU is occupied
	// for ProcFixed + size/ProcRateBps, and arrivals queue serially. This
	// captures deserialization, hashing and signature checking — the
	// per-hop cost that makes saving a communication step worth more than
	// pure propagation delay. Zero disables the model.
	ProcRateBps float64
	// ProcFixed is the per-message fixed processing cost (see ProcRateBps).
	ProcFixed time.Duration
	// Seed drives all pseudo-randomness (jitter). Same seed, same topology,
	// same engines => identical executions.
	Seed uint64
	// AllowReordering disables the per-link FIFO floor, letting jittered
	// messages overtake earlier ones on the same link.
	AllowReordering bool
	// Filter, when non-nil, is consulted for every delivery; returning
	// false drops the message. Used for partition and loss tests.
	Filter func(from, to types.ReplicaID, msg types.Message, at time.Time) bool
}

// Hooks observe the simulation. All callbacks run synchronously on the
// simulation goroutine and receive virtual timestamps.
type Hooks struct {
	// OnBroadcast fires when a replica broadcasts a message.
	OnBroadcast func(node types.ReplicaID, at time.Time, msg types.Message)
	// OnDeliver fires when a message is delivered to a replica.
	OnDeliver func(from, to types.ReplicaID, at time.Time, msg types.Message)
	// OnCommit fires when a replica finalizes blocks.
	OnCommit func(node types.ReplicaID, at time.Time, c protocol.Commit)
	// OnFault fires when an engine reports a safety fault.
	OnFault func(node types.ReplicaID, at time.Time, err error)
}

type eventKind uint8

const (
	evDeliver eventKind = iota + 1
	evTimer
	evCrash
	evRestart
	evCall
)

type event struct {
	at      time.Time
	seq     uint64
	kind    eventKind
	node    types.ReplicaID
	from    types.ReplicaID
	msg     types.Message
	tid     protocol.TimerID
	rebuild func(now time.Time) protocol.Engine
	call    func(now time.Time)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Network is a running simulation.
type Network struct {
	opts    Options
	hooks   Hooks
	engines []protocol.Engine

	now     time.Time
	pq      eventHeap
	free    []*event // dispatched events, for push to reuse
	seq     uint64
	started bool

	crashed []bool
	faulted []bool

	txFree  []time.Time   // sender NIC availability
	rxFree  []time.Time   // receiver CPU availability
	fifo    [][]time.Time // per-link latest delivery time
	linkSeq [][]uint64    // per-link message counter (jitter derivation)

	stats Stats
}

// Stats counts simulation-level activity.
type Stats struct {
	Events   int64
	Messages int64
	Bytes    int64
	Dropped  int64
	Timers   int64
	Crashes  int64
	SimTime  time.Duration
	Faults   int

	// ByKind splits Messages and Bytes by wire kind, indexed by
	// types.MsgKind: a fixed table, so counting allocates nothing.
	ByKind [types.NumMsgKinds]KindStats
}

// KindStats counts the messages of one kind sent and their wire bytes.
type KindStats struct {
	Messages, Bytes int64
}

// Epoch is the virtual time origin of every simulation.
var Epoch = time.Unix(0, 0).UTC()

// New assembles a simulation over the given engines. Engine i must be the
// engine for replica i.
func New(engines []protocol.Engine, opts Options, hooks Hooks) (*Network, error) {
	if opts.Topology == nil {
		return nil, fmt.Errorf("simnet: topology is required")
	}
	n := len(engines)
	if n == 0 || opts.Topology.N() != n {
		return nil, fmt.Errorf("simnet: %d engines but topology has %d nodes", n, opts.Topology.N())
	}
	for i, e := range engines {
		if int(e.ID()) != i {
			return nil, fmt.Errorf("simnet: engine %d claims replica ID %d", i, e.ID())
		}
	}
	net := &Network{
		opts:    opts,
		hooks:   hooks,
		engines: engines,
		now:     Epoch,
		crashed: make([]bool, n),
		faulted: make([]bool, n),
		txFree:  make([]time.Time, n),
		rxFree:  make([]time.Time, n),
		fifo:    make([][]time.Time, n),
		linkSeq: make([][]uint64, n),
	}
	for i := range net.fifo {
		net.fifo[i] = make([]time.Time, n)
		net.linkSeq[i] = make([]uint64, n)
		net.txFree[i] = Epoch
		net.rxFree[i] = Epoch
		for j := range net.fifo[i] {
			net.fifo[i][j] = Epoch
		}
	}
	return net, nil
}

// Now returns the current virtual time.
func (s *Network) Now() time.Time { return s.now }

// Elapsed returns virtual time since the epoch.
func (s *Network) Elapsed() time.Duration { return s.now.Sub(Epoch) }

// Stats returns simulation counters.
func (s *Network) Stats() Stats {
	st := s.stats
	st.SimTime = s.Elapsed()
	return st
}

// Engine returns the engine for a replica.
func (s *Network) Engine(id types.ReplicaID) protocol.Engine { return s.engines[id] }

// CrashAt schedules a crash: from time t on, the replica neither receives
// nor emits anything.
func (s *Network) CrashAt(id types.ReplicaID, t time.Duration) {
	s.push(event{at: Epoch.Add(t), kind: evCrash, node: id})
}

// RestartAt schedules a crash-restart: at time t the replica is replaced
// by the engine the rebuild callback returns — typically a fresh engine
// recovered from a write-ahead log (wal.NewRecorder over the crashed
// replica's directory) — and that engine's Start runs at virtual time t.
// A rebuild that fails may return nil: the replica then simply stays
// crashed (re-Starting the old engine would rewind it to round 1 and
// corrupt the run). Timer events scheduled by the pre-crash engine still
// fire on the new one; engines discard stale timer IDs, so this models a
// lost in-kernel timer wheel faithfully enough.
func (s *Network) RestartAt(id types.ReplicaID, t time.Duration, rebuild func(now time.Time) protocol.Engine) {
	s.push(event{at: Epoch.Add(t), kind: evRestart, node: id, rebuild: rebuild})
}

// JoinAt schedules a replica to join the network at time t: it is held
// out of the initial Start (it neither receives nor emits before t) and
// boots cold at t having observed nothing — the fresh-join scenario
// that exercises peer snapshot state sync. Must be called before Start.
func (s *Network) JoinAt(id types.ReplicaID, t time.Duration) {
	s.crashed[id] = true
	s.push(event{at: Epoch.Add(t), kind: evRestart, node: id})
}

// At schedules an arbitrary callback at virtual time t. The callback runs
// on the simulation goroutine between engine steps — hosts use it for
// scripted control-plane actions (scheduling a reconfiguration proposal,
// flipping a knob) that are not themselves network traffic.
func (s *Network) At(t time.Duration, fn func(now time.Time)) {
	s.push(event{at: Epoch.Add(t), kind: evCall, call: fn})
}

// Start boots every engine at the epoch. Must be called once before Run.
func (s *Network) Start() {
	if s.started {
		return
	}
	s.started = true
	for i, e := range s.engines {
		if s.crashed[i] {
			continue
		}
		s.apply(types.ReplicaID(i), e.Start(s.now))
	}
}

// Run processes events until the virtual clock reaches the epoch plus d.
func (s *Network) Run(d time.Duration) {
	s.RunUntil(Epoch.Add(d))
}

// RunUntil processes events with timestamps <= deadline, advancing the
// clock to exactly the deadline.
func (s *Network) RunUntil(deadline time.Time) {
	if !s.started {
		s.Start()
	}
	for len(s.pq) > 0 {
		next := s.pq[0]
		if next.at.After(deadline) {
			break
		}
		heap.Pop(&s.pq)
		s.now = next.at
		s.dispatch(next)
		*next = event{} // release the message; the event is recycled
		s.free = append(s.free, next)
	}
	if s.now.Before(deadline) {
		s.now = deadline
	}
}

// Idle reports whether no events remain.
func (s *Network) Idle() bool { return len(s.pq) == 0 }

func (s *Network) dispatch(e *event) {
	s.stats.Events++
	switch e.kind {
	case evCrash:
		if !s.crashed[e.node] {
			s.crashed[e.node] = true
			s.stats.Crashes++
		}
	case evRestart:
		if e.rebuild != nil {
			ne := e.rebuild(s.now)
			if ne == nil {
				return // rebuild failed: the replica stays crashed
			}
			s.engines[e.node] = ne
		}
		s.crashed[e.node] = false
		s.faulted[e.node] = false
		s.apply(e.node, s.engines[e.node].Start(s.now))
	case evDeliver:
		if s.crashed[e.node] || s.faulted[e.node] {
			return
		}
		if s.hooks.OnDeliver != nil {
			s.hooks.OnDeliver(e.from, e.node, s.now, e.msg)
		}
		s.apply(e.node, s.engines[e.node].HandleMessage(e.from, e.msg, s.now))
	case evTimer:
		if s.crashed[e.node] || s.faulted[e.node] {
			return
		}
		s.apply(e.node, s.engines[e.node].HandleTimer(e.tid, s.now))
	case evCall:
		e.call(s.now)
	}
}

// apply executes an engine's actions at the current instant.
func (s *Network) apply(node types.ReplicaID, acts []protocol.Action) {
	for _, a := range acts {
		switch act := a.(type) {
		case protocol.Broadcast:
			if s.hooks.OnBroadcast != nil {
				s.hooks.OnBroadcast(node, s.now, act.Msg)
			}
			s.broadcast(node, act.Msg)
		case protocol.Send:
			s.unicast(node, act.To, act.Msg)
		case protocol.SetTimer:
			at := act.At
			if at.Before(s.now) {
				at = s.now
			}
			s.stats.Timers++
			s.push(event{at: at, kind: evTimer, node: node, tid: act.ID})
		case protocol.Commit:
			if s.hooks.OnCommit != nil {
				s.hooks.OnCommit(node, s.now, act)
			}
		case protocol.SafetyFault:
			s.faulted[node] = true
			s.stats.Faults++
			if s.hooks.OnFault != nil {
				s.hooks.OnFault(node, s.now, act.Err)
			}
		}
	}
}

func (s *Network) broadcast(from types.ReplicaID, msg types.Message) {
	n := len(s.engines)
	for j := 0; j < n; j++ {
		if types.ReplicaID(j) == from {
			continue
		}
		s.unicast(from, types.ReplicaID(j), msg)
	}
}

func (s *Network) unicast(from, to types.ReplicaID, msg types.Message) {
	if s.crashed[from] || s.faulted[from] {
		return
	}
	if s.opts.Filter != nil && !s.opts.Filter(from, to, msg, s.now) {
		s.stats.Dropped++
		return
	}
	size := types.WireSize(msg)
	s.stats.Messages++
	s.stats.Bytes += int64(size)
	if k := int(msg.Kind()); k < len(s.stats.ByKind) {
		s.stats.ByKind[k].Messages++
		s.stats.ByKind[k].Bytes += int64(size)
	}

	// Sender NIC serialization: unicasts from one host share the uplink.
	txStart := s.now
	if s.txFree[from].After(txStart) {
		txStart = s.txFree[from]
	}
	var txDur time.Duration
	if s.opts.BandwidthBps > 0 {
		txDur = time.Duration(float64(size) / s.opts.BandwidthBps * float64(time.Second))
	}
	s.txFree[from] = txStart.Add(txDur)

	base := s.opts.Topology.Delay(from, to)
	arrive := txStart.Add(txDur).Add(base).Add(s.jitter(from, to, base))

	if !s.opts.AllowReordering {
		// TCP semantics: per-link FIFO (Remark 8.3).
		if s.fifo[from][to].After(arrive) {
			arrive = s.fifo[from][to]
		}
		s.fifo[from][to] = arrive
	}

	// Receiver CPU: arrivals queue serially for processing before the
	// engine handles them.
	if s.opts.ProcRateBps > 0 || s.opts.ProcFixed > 0 {
		start := arrive
		if s.rxFree[to].After(start) {
			start = s.rxFree[to]
		}
		proc := s.opts.ProcFixed
		if s.opts.ProcRateBps > 0 {
			proc += time.Duration(float64(size) / s.opts.ProcRateBps * float64(time.Second))
		}
		arrive = start.Add(proc)
		s.rxFree[to] = arrive
	}
	s.push(event{at: arrive, kind: evDeliver, node: to, from: from, msg: msg})
}

// jitter derives a deterministic per-message jitter from the seed and the
// link's message counter, independent of global event interleaving.
func (s *Network) jitter(from, to types.ReplicaID, base time.Duration) time.Duration {
	if s.opts.JitterFrac <= 0 || base <= 0 {
		return 0
	}
	seq := s.linkSeq[from][to]
	s.linkSeq[from][to]++
	var buf [20]byte
	binary.LittleEndian.PutUint64(buf[0:8], s.opts.Seed)
	binary.LittleEndian.PutUint16(buf[8:10], uint16(from))
	binary.LittleEndian.PutUint16(buf[10:12], uint16(to))
	binary.LittleEndian.PutUint64(buf[12:20], seq)
	sum := sha256.Sum256(buf[:])
	u := binary.LittleEndian.Uint64(sum[:8])
	frac := float64(u) / float64(math.MaxUint64) // [0,1)
	return time.Duration(frac * s.opts.JitterFrac * float64(base))
}

// push schedules a copy of e, in an event taken from the free list when
// one is there.
func (s *Network) push(e event) {
	var slot *event
	if n := len(s.free); n > 0 {
		slot, s.free = s.free[n-1], s.free[:n-1]
	} else {
		slot = new(event)
	}
	*slot = e
	slot.seq = s.seq
	s.seq++
	heap.Push(&s.pq, slot)
}
