// Package fetch is the retrieval layer: the one scheduler for "this
// replica lacks X and these peers hold it". The engine runs four
// instances — batch bodies keyed by digest (delivery gating), block
// bodies keyed by round and ID (the pull behind header relays), chain
// suffix segments keyed by first round (catch-up) and snapshots keyed by
// target round (state sync) — and drives all four through the same loop:
// Begin → send; on a passed deadline, Retry → resend.
//
// The scheduler is passive like the engine that owns it: it holds no
// crypto and never sends anything itself. Responses are self-certifying
// (digest, signature or quorum-certificate check in the engine), so no
// peer can inject a wrong body or state — a bad peer only wastes its own
// timeout slot.
package fetch

import (
	"slices"
	"time"

	"banyan/internal/types"
)

// Window is how many keys one Fetcher has in flight at once. Keys beyond
// it wait in FIFO order for a slot. A restarted replica that lacks dozens
// of batch bodies asks for them Window at a time instead of one by one.
const Window = 8

// ring iterates over the peers of one replica in a fixed rotation,
// skipping the replica itself. A Fetcher draws the peers it asks after a
// key's holders from its ring, so retry traffic spreads over the cluster
// instead of hammering one replica.
type ring struct {
	self   types.ReplicaID
	n      int
	cursor int
}

// newRing creates a rotation over the n-1 peers of self. n must be >= 2.
func newRing(self types.ReplicaID, n int) *ring {
	return &ring{self: self, n: n}
}

// Current returns the peer the rotation points at.
func (r *ring) Current() types.ReplicaID {
	id := (int(r.self) + 1 + r.cursor%(r.n-1)) % r.n
	return types.ReplicaID(id)
}

// Advance moves to the next peer and returns it.
func (r *ring) Advance() types.ReplicaID {
	r.cursor = (r.cursor + 1) % (r.n - 1)
	return r.Current()
}

// Fetcher schedules fetch-on-miss unicasts for items named by a key K: a
// FIFO of deduplicated keys, up to Window of them in flight, each with
// its own peer choice and deadline after which its request rotates to the
// next peer. Each key remembers the peers believed to hold it — a batch's
// origin, or the relayers and voters a block body was heard of from — and
// asks them in order before walking the peer ring, so a withholding
// holder costs one timeout and nothing more. The ring cursor is shared by
// the keys in flight, so their retries spread over the peers.
//
// In-flight keys are kept in a slice in Begin order and queued keys in
// Add order: every choice the fetcher makes is deterministic, which
// same-seed simulations depend on.
type Fetcher[K comparable] struct {
	self    types.ReplicaID
	ring    *ring
	timeout time.Duration

	queue    []*target[K]     // waiting for a window slot, oldest first
	inflight []*target[K]     // requested, in Begin order
	keys     map[K]*target[K] // queued or in flight

	// suspect is the negative cache: peers that let a request expire lose
	// the holder-first preference until the entry lapses, so a withholding
	// origin costs one probe per suspicion window — not one per key.
	// Without it, a Byzantine origin cutting batches faster than
	// timeout-per-digest would outrun the fetcher and wedge the
	// requester's delivery queue.
	suspect map[types.ReplicaID]time.Time

	fetches int64
	retries int64
}

// suspectWindow is how many timeouts a suspicion lasts: long enough to
// amortize the probe, short enough that a recovered peer is retried.
const suspectWindow = 8

type target[K comparable] struct {
	key     K
	holders []types.ReplicaID // asked in order before the ring
	asked   int               // holders[:asked] have had their turn
	sent    int               // requests sent for this key so far

	// Set by Begin; a zero deadline means the key is still queued.
	peer     types.ReplicaID // asked last
	deadline time.Time       // when peer's silence rotates the request
	started  time.Time       // Begin time (observability)
}

// NewFetcher creates a fetcher for replica self in a cluster of n.
// timeout is the per-peer silence budget before rotating.
func NewFetcher[K comparable](self types.ReplicaID, n int, timeout time.Duration) *Fetcher[K] {
	return &Fetcher[K]{
		self:    self,
		ring:    newRing(self, n),
		timeout: timeout,
		keys:    make(map[K]*target[K]),
		suspect: make(map[types.ReplicaID]time.Time),
	}
}

// Add queues a key to fetch, remembering holder as a peer to prefer over
// the ring (types.NoReplica names none). Adding a key that is already
// queued or in flight only records the holder (if new). Reports whether
// the key is new.
func (f *Fetcher[K]) Add(key K, holder types.ReplicaID) bool {
	t, dup := f.keys[key]
	if !dup {
		t = &target[K]{key: key}
		f.keys[key] = t
		f.queue = append(f.queue, t)
	}
	if holder != types.NoReplica && !slices.Contains(t.holders, holder) {
		t.holders = append(t.holders, holder)
	}
	return !dup
}

// Fetching reports whether a request is in flight.
func (f *Fetcher[K]) Fetching() bool { return len(f.inflight) > 0 }

// Idle reports whether no key is queued or in flight.
func (f *Fetcher[K]) Idle() bool { return len(f.keys) == 0 }

// Begin moves the oldest queued key into the window and picks the peer to
// ask. It reports false when nothing is queued or the window is full.
func (f *Fetcher[K]) Begin(now time.Time) (key K, peer types.ReplicaID, ok bool) {
	if len(f.inflight) >= Window || len(f.queue) == 0 {
		return key, types.NoReplica, false
	}
	t := f.queue[0]
	f.queue = f.queue[1:]
	f.inflight = append(f.inflight, t)
	t.peer = f.nextPeer(t, now, types.NoReplica)
	t.deadline = now.Add(f.timeout)
	t.started = now
	f.fetches++
	return t.key, t.peer, true
}

// nextPeer picks whom to ask for t: the next holder that has not had its
// turn — skipping this replica itself (a restarted proposer refetching
// bodies of its own pre-crash blocks from the peers that acked them) and
// holders currently suspect — then the ring, stepping past avoid so a
// retry never re-asks the peer that just timed out (the ring cursor may
// still point at it after a holder-first attempt).
func (f *Fetcher[K]) nextPeer(t *target[K], now time.Time, avoid types.ReplicaID) types.ReplicaID {
	t.sent++
	for t.asked < len(t.holders) {
		h := t.holders[t.asked]
		t.asked++
		if h != f.self && !f.suspected(h, now) {
			return h
		}
	}
	next := f.ring.Current()
	if next == avoid {
		next = f.ring.Advance()
	}
	return next
}

// Expired returns the first in-flight key, in Begin order, whose deadline
// has passed.
func (f *Fetcher[K]) Expired(now time.Time) (key K, ok bool) {
	for _, t := range f.inflight {
		if !now.Before(t.deadline) {
			return t.key, true
		}
	}
	return key, false
}

// suspected reports whether a peer's negative-cache entry is still live,
// lazily evicting lapsed ones.
func (f *Fetcher[K]) suspected(id types.ReplicaID, now time.Time) bool {
	until, ok := f.suspect[id]
	if !ok {
		return false
	}
	if now.Before(until) {
		return true
	}
	delete(f.suspect, id)
	return false
}

// Retry rotates an in-flight key (one Expired named) to its next peer and
// re-arms its deadline; the caller resends the request to the returned
// peer. The peer that timed out enters the negative cache, for every key.
func (f *Fetcher[K]) Retry(key K, now time.Time) types.ReplicaID {
	t := f.keys[key]
	f.suspect[t.peer] = now.Add(suspectWindow * f.timeout)
	t.peer = f.nextPeer(t, now, t.peer)
	t.deadline = now.Add(f.timeout)
	f.retries++
	return t.peer
}

// Sent returns how many requests an in-flight key has cost so far.
func (f *Fetcher[K]) Sent(key K) int { return f.keys[key].sent }

// Started returns when an in-flight key's fetch began (its Begin time,
// not the latest retry).
func (f *Fetcher[K]) Started(key K) (time.Time, bool) {
	t := f.keys[key]
	if t == nil || t.deadline.IsZero() {
		return time.Time{}, false
	}
	return t.started, true
}

// Deadline returns the earliest deadline in flight, or the zero time when
// nothing is: the one moment the owner's timer must fire.
func (f *Fetcher[K]) Deadline() time.Time {
	var at time.Time
	for _, t := range f.inflight {
		if at.IsZero() || t.deadline.Before(at) {
			at = t.deadline
		}
	}
	return at
}

// Done marks a key satisfied or abandoned (the item arrived — via
// response, late broadcast, or any other path — or is no longer wanted):
// it leaves the queue or the window, freeing its slot for the next Begin,
// and the dedup set.
func (f *Fetcher[K]) Done(key K) {
	t, ok := f.keys[key]
	if !ok {
		return
	}
	delete(f.keys, key)
	if i := slices.Index(f.inflight, t); i >= 0 {
		f.inflight = slices.Delete(f.inflight, i, i+1)
	} else if i := slices.Index(f.queue, t); i >= 0 {
		f.queue = slices.Delete(f.queue, i, i+1)
	}
}

// Drop marks Done every queued or in-flight key stale reports.
func (f *Fetcher[K]) Drop(stale func(K) bool) {
	for key := range f.keys {
		if stale(key) {
			f.Done(key)
		}
	}
}

// Counts returns how many fetches were begun and how many retries
// (rotations after a timeout) they needed.
func (f *Fetcher[K]) Counts() (fetches, retries int64) { return f.fetches, f.retries }
