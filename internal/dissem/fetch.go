package dissem

import (
	"time"

	"banyan/internal/statesync"
	"banyan/internal/types"
)

// Fetcher schedules fetch-on-miss unicasts for bodies named by a key K: a
// FIFO of deduplicated keys, at most one in-flight request, and a
// per-peer deadline after which the request rotates to the next peer.
// Each key remembers the peers believed to hold its body — a batch's
// origin (the block proposer; blocks only reference proposer-own
// batches), or the relayers and voters a block body was heard of from —
// and asks them in order before walking the peer ring, so a withholding
// holder costs one timeout and nothing more. Like the statesync fetcher
// it is passive: the engine calls Begin/Expired/Retry/Done from its
// event handlers and turns peer choices into Send actions. Responses are
// self-certifying (digest or signature check), so no peer can inject a
// wrong body — a bad peer only wastes its own timeout slot.
//
// The engine runs two: batch bodies keyed by digest (delivery gating),
// and block bodies keyed by round and ID (the pull behind header relays).
type Fetcher[K comparable] struct {
	self    types.ReplicaID
	ring    *statesync.Ring
	timeout time.Duration

	queue  []*target[K]
	queued map[K]*target[K] // queued or in flight

	cur      *target[K] // in flight, nil when idle
	peer     types.ReplicaID
	deadline time.Time
	started  time.Time // when the in-flight fetch began (observability)

	// suspect is the negative cache: peers that let a request expire lose
	// the holder-first preference until the entry lapses, so a withholding
	// origin costs one probe per suspicion window — not one per key.
	// Without it, a Byzantine origin cutting batches faster than
	// timeout-per-digest would outrun the serial fetcher and wedge the
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
}

// NewFetcher creates a fetcher for replica self in a cluster of n.
// timeout is the per-peer silence budget before rotating.
func NewFetcher[K comparable](self types.ReplicaID, n int, timeout time.Duration) *Fetcher[K] {
	return &Fetcher[K]{
		self:    self,
		ring:    statesync.NewRing(self, n),
		timeout: timeout,
		queued:  make(map[K]*target[K]),
		suspect: make(map[types.ReplicaID]time.Time),
	}
}

// Add queues a key to fetch, remembering holder as a peer to prefer over
// the ring. Adding a key that is already queued or in flight only records
// the holder (if new). Reports whether the queue grew.
func (f *Fetcher[K]) Add(key K, holder types.ReplicaID) bool {
	if t, dup := f.queued[key]; dup {
		for _, h := range t.holders {
			if h == holder {
				return false
			}
		}
		t.holders = append(t.holders, holder)
		return false
	}
	t := &target[K]{key: key, holders: []types.ReplicaID{holder}}
	f.queued[key] = t
	f.queue = append(f.queue, t)
	return true
}

// Fetching reports whether a request is in flight.
func (f *Fetcher[K]) Fetching() bool { return f.cur != nil }

// Pending reports whether keys are queued (not counting in-flight).
func (f *Fetcher[K]) Pending() bool { return len(f.queue) > 0 }

// Key returns the in-flight key; only valid while Fetching.
func (f *Fetcher[K]) Key() K { return f.cur.key }

// Peer returns the peer currently being asked; only valid while Fetching.
func (f *Fetcher[K]) Peer() types.ReplicaID { return f.peer }

// Sent returns how many requests the in-flight key has cost so far; only
// valid while Fetching.
func (f *Fetcher[K]) Sent() int { return f.cur.sent }

// Deadline returns the in-flight request's retry deadline; only valid
// while Fetching.
func (f *Fetcher[K]) Deadline() time.Time { return f.deadline }

// Started returns when the in-flight fetch began (its Begin time, not
// the latest retry); only valid while Fetching.
func (f *Fetcher[K]) Started() time.Time { return f.started }

// Begin pops the oldest queued key and starts a fetch. Returns false
// when nothing is queued or a fetch is already in flight.
func (f *Fetcher[K]) Begin(now time.Time) bool {
	if f.cur != nil || len(f.queue) == 0 {
		return false
	}
	f.cur = f.queue[0]
	f.queue = f.queue[1:]
	f.peer = f.nextPeer(now, types.NoReplica)
	f.deadline = now.Add(f.timeout)
	f.started = now
	f.fetches++
	return true
}

// nextPeer picks whom to ask for the in-flight key: the next holder that
// has not had its turn — skipping this replica itself (a restarted
// proposer refetching bodies of its own pre-crash blocks from the peers
// that acked them) and holders currently suspect — then the ring,
// stepping past avoid so a retry never re-asks the peer that just timed
// out (the ring cursor may still point at it after a holder-first
// attempt).
func (f *Fetcher[K]) nextPeer(now time.Time, avoid types.ReplicaID) types.ReplicaID {
	f.cur.sent++
	for f.cur.asked < len(f.cur.holders) {
		h := f.cur.holders[f.cur.asked]
		f.cur.asked++
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

// Expired reports whether the in-flight request's deadline has passed.
func (f *Fetcher[K]) Expired(now time.Time) bool {
	return f.cur != nil && !now.Before(f.deadline)
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

// Retry rotates to the next peer and re-arms the deadline; the caller
// resends the request to the returned peer. Only valid while Fetching.
// The peer that timed out enters the negative cache.
func (f *Fetcher[K]) Retry(now time.Time) types.ReplicaID {
	f.suspect[f.peer] = now.Add(suspectWindow * f.timeout)
	f.peer = f.nextPeer(now, f.peer)
	f.deadline = now.Add(f.timeout)
	f.retries++
	return f.peer
}

// Done marks a key satisfied or abandoned (body arrived — via response,
// late broadcast, or any other path — or is no longer wanted): the
// in-flight request is cleared if it matches and the key leaves the
// dedup set.
func (f *Fetcher[K]) Done(key K) {
	t, ok := f.queued[key]
	if !ok {
		return
	}
	delete(f.queued, key)
	if f.cur == t {
		f.cur = nil
		return
	}
	for i := range f.queue {
		if f.queue[i] == t {
			f.queue = append(f.queue[:i], f.queue[i+1:]...)
			break
		}
	}
}

// Counts returns how many fetches were begun and how many retries
// (rotations after a timeout) they needed.
func (f *Fetcher[K]) Counts() (fetches, retries int64) { return f.fetches, f.retries }
