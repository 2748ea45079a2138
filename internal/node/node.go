// Package node hosts a consensus engine in real time: it connects an
// engine to a transport and the wall clock, running the engine's
// single-threaded event loop on a dedicated goroutine. It is the
// deployment-side counterpart of the discrete-event simulator — the same
// engine code runs under both, which is the framework property paper
// section 9.1 relies on for fair protocol comparison.
package node

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Inbound is a message received from a peer. Msg may alias the
// transport's receive buffer (the TCP transport decodes frames in place)
// and, on in-process transports, may be the very object another replica
// sent — both are safe because consensus messages are immutable after
// construction and carry their own memoized digests and encodings.
type Inbound struct {
	From types.ReplicaID
	Msg  types.Message
}

// Transport moves messages between replicas. Implementations:
// transport/channel (in-process) and transport/tcp (real sockets).
type Transport interface {
	// Send delivers a message to one replica (best effort).
	Send(to types.ReplicaID, msg types.Message) error
	// Broadcast delivers a message to every other replica (best effort).
	Broadcast(msg types.Message) error
	// Receive returns the channel of inbound messages. The channel is
	// closed when the transport shuts down.
	Receive() <-chan Inbound
	// Close shuts the transport down and releases its resources.
	Close() error
}

// Config assembles a node.
type Config struct {
	// Engine is the consensus state machine to host. Required.
	Engine protocol.Engine
	// Transport connects the node to its peers. Required. The node owns it
	// and closes it on Stop.
	Transport Transport
	// OnCommit, when non-nil, is called on the node's goroutine with every
	// Commit action the engine emits and the time it was applied. It must
	// not block: the engine waits for it.
	OnCommit func(at time.Time, c protocol.Commit)
	// OnFault, when non-nil, is called once if the engine reports a safety
	// violation; the node stops afterwards.
	OnFault func(error)
	// Clock returns the current time; nil selects time.Now. Tests inject
	// fake clocks here.
	Clock func() time.Time
}

// Node runs one replica.
type Node struct {
	cfg   Config
	clock func() time.Time

	timers   timerHeap
	timerGen map[protocol.TimerID]uint64 // latest generation per ID

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	mu      sync.Mutex
	started bool // the event loop owns done
	stopped bool // Start refuses
}

// New assembles a node; call Start to run it.
func New(cfg Config) (*Node, error) {
	if cfg.Engine == nil {
		return nil, errors.New("node: engine is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("node: transport is required")
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Node{
		cfg:      cfg,
		clock:    clock,
		timerGen: make(map[protocol.TimerID]uint64),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}, nil
}

// ID returns the hosted replica's ID.
func (n *Node) ID() types.ReplicaID { return n.cfg.Engine.ID() }

// Start boots the engine and runs the event loop until Stop.
func (n *Node) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return errors.New("node: already started")
	}
	if n.stopped {
		return errors.New("node: stopped")
	}
	n.started = true
	go n.run()
	return nil
}

// Stop shuts the node down and waits for the event loop to exit. A node
// that never started has no loop to wait for: Stop closes its transport
// and returns at once, and a later Start fails.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		n.mu.Lock()
		n.stopped = true
		started := n.started
		n.mu.Unlock()
		close(n.stop)
		if !started {
			n.closeTransport()
			close(n.done)
		}
	})
	<-n.done
}

// closeTransport releases the transport the node owns; a failure is a
// fault.
func (n *Node) closeTransport() {
	if err := n.cfg.Transport.Close(); err != nil && n.cfg.OnFault != nil {
		n.cfg.OnFault(fmt.Errorf("node: closing transport: %w", err))
	}
}

// Metrics returns the engine's counters once the node has stopped, and
// nil while it runs.
func (n *Node) Metrics() map[string]int64 {
	// Only the loop touches the engine, so its counters are read only
	// after the loop has exited: done is closed after that.
	select {
	case <-n.done:
		return n.cfg.Engine.Metrics()
	default:
		return nil
	}
}

func (n *Node) run() {
	defer close(n.done)
	defer n.closeTransport()

	if !n.apply(n.cfg.Engine.Start(n.clock())) {
		return
	}

	idle := time.NewTimer(time.Hour)
	defer idle.Stop()
	inbound := n.cfg.Transport.Receive()
	for {
		var timerC <-chan time.Time
		if next, ok := n.nextTimer(); ok {
			d := next.at.Sub(n.clock())
			if d < 0 {
				d = 0
			}
			idle.Reset(d)
			timerC = idle.C
		}

		select {
		case <-n.stop:
			return
		case in, ok := <-inbound:
			if !ok {
				return
			}
			if !n.apply(n.cfg.Engine.HandleMessage(in.From, in.Msg, n.clock())) {
				return
			}
		case <-timerC:
			if !n.fireTimers(n.clock()) {
				return
			}
		}
	}
}

// fireTimers hands every live timer due by now to the engine, earliest
// first; it returns false when the node must stop.
func (n *Node) fireTimers(now time.Time) bool {
	for {
		next, ok := n.nextTimer()
		if !ok || next.at.After(now) {
			return true
		}
		n.timers.pop()
		// The live generation fired: forget the ID so the map does not grow
		// with one entry per round forever.
		delete(n.timerGen, next.id)
		if !n.apply(n.cfg.Engine.HandleTimer(next.id, now)) {
			return false
		}
	}
}

// apply executes engine actions; it returns false when the node must stop
// (safety fault).
func (n *Node) apply(acts []protocol.Action) bool {
	for _, a := range acts {
		switch act := a.(type) {
		case protocol.Broadcast:
			if err := n.cfg.Transport.Broadcast(act.Msg); err != nil && n.cfg.OnFault != nil {
				// Transport errors are reported but non-fatal: consensus
				// tolerates message loss.
				n.cfg.OnFault(fmt.Errorf("node: broadcast: %w", err))
			}
		case protocol.Send:
			if err := n.cfg.Transport.Send(act.To, act.Msg); err != nil && n.cfg.OnFault != nil {
				n.cfg.OnFault(fmt.Errorf("node: send to %d: %w", act.To, err))
			}
		case protocol.SetTimer:
			n.setTimer(act)
		case protocol.Commit:
			if n.cfg.OnCommit != nil {
				n.cfg.OnCommit(n.clock(), act)
			}
		case protocol.SafetyFault:
			if n.cfg.OnFault != nil {
				n.cfg.OnFault(act.Err)
			}
			return false
		}
	}
	return true
}

func (n *Node) setTimer(act protocol.SetTimer) {
	gen := n.timerGen[act.ID] + 1
	n.timerGen[act.ID] = gen
	n.timers.push(pendingTimer{at: act.At, id: act.ID, gen: gen})
}

func (n *Node) nextTimer() (pendingTimer, bool) {
	for len(n.timers) > 0 {
		top := n.timers[0]
		if n.timerGen[top.id] != top.gen {
			n.timers.pop() // superseded entry
			continue
		}
		return top, true
	}
	return pendingTimer{}, false
}

type pendingTimer struct {
	at  time.Time
	id  protocol.TimerID
	gen uint64
}

// timerHeap is a binary min-heap on the due time, the earliest at index
// 0. It sifts exactly as container/heap does, so timers due at the same
// instant fire in the same order, without boxing an entry per push or
// pop.
type timerHeap []pendingTimer

func (h *timerHeap) push(t pendingTimer) {
	*h = append(*h, t)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].at.Before(s[p].at) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes the earliest timer.
func (h *timerHeap) pop() {
	s := *h
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(s) {
			break
		}
		if r := m + 1; r < len(s) && s[r].at.Before(s[m].at) {
			m = r
		}
		if !s[m].at.Before(s[i].at) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
}
