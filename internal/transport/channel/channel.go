// Package channel provides an in-process transport: a hub connects n
// replicas through buffered channels with an optional per-link delay. It
// backs the runnable examples (whole clusters in one process, real time)
// and the node-runtime tests; fault scenarios and wide-area experiments
// use the discrete-event simulator instead.
//
// Messages are delivered by pointer, never deep-copied or re-encoded:
// consensus messages are immutable once emitted (the contract Block.ID
// and Payload.Digest caching also rely on), so aliasing one message
// across n receive queues is safe and keeps the in-process fan-out
// allocation-free. The channel hand-off supplies the happens-before edge
// that makes the sender-side digest caches readable by every receiver.
package channel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"banyan/internal/node"
	"banyan/internal/types"
)

// Options tune the hub.
type Options struct {
	// QueueLen is each replica's inbound queue capacity (default 4096).
	// When a queue is full the message is dropped — consensus protocols
	// tolerate loss; tests can assert drop counters stay zero.
	QueueLen int
	// Delay, when non-nil, returns the one-way delivery delay per link.
	Delay func(from, to types.ReplicaID) time.Duration
}

// Hub connects n in-process replicas.
type Hub struct {
	n      int
	opts   Options
	queues []chan node.Inbound

	closed  atomic.Bool
	dropped []atomic.Int64 // per destination

	wg sync.WaitGroup
}

// NewHub creates a hub for n replicas.
func NewHub(n int, opts Options) *Hub {
	if opts.QueueLen <= 0 {
		opts.QueueLen = 4096
	}
	h := &Hub{
		n:       n,
		opts:    opts,
		queues:  make([]chan node.Inbound, n),
		dropped: make([]atomic.Int64, n),
	}
	for i := range h.queues {
		h.queues[i] = make(chan node.Inbound, opts.QueueLen)
	}
	return h
}

// Transport returns the transport endpoint for replica id.
func (h *Hub) Transport(id types.ReplicaID) node.Transport {
	return &endpoint{hub: h, id: id}
}

// Drain discards everything queued for a replica. A replica provisioned
// mid-run (Cluster.JoinReplica) connects its transport at join time and
// must not inherit the backlog addressed to its slot before it existed —
// replaying that history would let it catch up through a channel no
// real deployment has.
func (h *Hub) Drain(id types.ReplicaID) {
	for {
		select {
		case <-h.queues[id]:
		default:
			return
		}
	}
}

// Dropped returns the number of messages addressed to replica id that
// the hub dropped (its queue full, or sent after Close).
func (h *Hub) Dropped(id types.ReplicaID) int64 { return h.dropped[id].Load() }

// Close shuts the hub down; pending delayed deliveries are awaited, then
// all queues close. Sends after Close are dropped; the replicas must have
// stopped sending before it is called.
func (h *Hub) Close() {
	if !h.closed.CompareAndSwap(false, true) {
		return
	}
	h.wg.Wait()
	for _, q := range h.queues {
		close(q)
	}
}

func (h *Hub) deliver(from, to types.ReplicaID, msg types.Message) {
	if h.closed.Load() {
		h.dropped[to].Add(1)
		return
	}
	var delay time.Duration
	if h.opts.Delay != nil {
		delay = h.opts.Delay(from, to)
	}
	in := node.Inbound{From: from, Msg: msg}
	if delay <= 0 {
		h.enqueue(to, in)
		return
	}
	h.wg.Add(1)
	time.AfterFunc(delay, func() {
		defer h.wg.Done()
		if !h.closed.Load() {
			h.enqueue(to, in)
		}
	})
}

func (h *Hub) enqueue(to types.ReplicaID, in node.Inbound) {
	select {
	case h.queues[to] <- in:
	default:
		h.dropped[to].Add(1)
	}
}

type endpoint struct {
	hub *Hub
	id  types.ReplicaID
}

var _ node.Transport = (*endpoint)(nil)

func (e *endpoint) Send(to types.ReplicaID, msg types.Message) error {
	if int(to) >= e.hub.n {
		return fmt.Errorf("channel: no replica %d", to)
	}
	e.hub.deliver(e.id, to, msg)
	return nil
}

func (e *endpoint) Broadcast(msg types.Message) error {
	for j := 0; j < e.hub.n; j++ {
		if types.ReplicaID(j) == e.id {
			continue
		}
		e.hub.deliver(e.id, types.ReplicaID(j), msg)
	}
	return nil
}

func (e *endpoint) Receive() <-chan node.Inbound { return e.hub.queues[e.id] }

// Close is a no-op for endpoints; the hub owns shared state. Closing the
// hub closes every endpoint's receive channel.
func (e *endpoint) Close() error { return nil }
