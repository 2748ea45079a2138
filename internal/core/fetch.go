package core

import (
	"time"

	"banyan/internal/fetch"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Per-peer silence budgets, in Δ, before a fetch rotates to the next
// peer. A batch request and a chain suffix request are one round trip,
// each way within Δ; a block body request costs one round trip plus
// serving time; a snapshot response carries a whole finalized window.
const (
	batchFetchDeltas    = 2
	syncFetchDeltas     = 2
	bodyFetchDeltas     = 4
	snapshotFetchDeltas = 8
)

// fetchClass is one kind of item the engine fetches on miss through the
// retrieval layer: batch bodies by digest (dissem.go), block bodies by
// round and ID (pull.go), chain suffix segments by first round and
// snapshots by target round (catch-up, engine.go). The class supplies its
// request message and timer kind; the loop is shared.
type fetchClass[K comparable] struct {
	*fetch.Fetcher[K]
	timer   protocol.TimerKind
	request func(K) types.Message
	// abandon, when set, is asked about a key whose deadline passed; true
	// drops the key instead of retrying it.
	abandon func(K) bool
	// wake is the time the class timer is armed for; HandleTimer clears it
	// when the timer fires.
	wake time.Time
}

func newFetchClass[K comparable](cfg Config, timeout time.Duration, timer protocol.TimerKind,
	request func(K) types.Message) fetchClass[K] {
	// Peer rotations span the whole identity registry, not just the
	// genesis set: a joiner must fetch state from replicas it is not yet a
	// co-member of, and the ring tolerates silent (not-yet-started) peers
	// by timeout rotation.
	f := fetch.NewFetcher[K](cfg.Self, cfg.Keyring.N(), timeout)
	return fetchClass[K]{Fetcher: f, timer: timer, request: request}
}

// step retries every in-flight key whose deadline has passed, then begins
// queued keys while the window has room: one unicast request each.
func (c *fetchClass[K]) step(now time.Time, acts []protocol.Action) []protocol.Action {
	for k, ok := c.Expired(now); ok; k, ok = c.Expired(now) {
		if c.abandon != nil && c.abandon(k) {
			c.Done(k)
			continue
		}
		acts = append(acts, protocol.Send{To: c.Retry(k, now), Msg: c.request(k)})
	}
	for k, peer, ok := c.Begin(now); ok; k, peer, ok = c.Begin(now) {
		acts = append(acts, protocol.Send{To: peer, Msg: c.request(k)})
	}
	return acts
}

// arm keeps the class timer armed for at, the next moment the class's
// state can change; a zero at needs no timer.
func (c *fetchClass[K]) arm(at time.Time, acts []protocol.Action) []protocol.Action {
	if at.IsZero() || at.Equal(c.wake) {
		return acts
	}
	c.wake = at
	return append(acts, protocol.SetTimer{ID: protocol.TimerID{Kind: c.timer}, At: at})
}

// drive runs one step and arms the timer for the earliest deadline in
// flight, the keys the step began included.
func (c *fetchClass[K]) drive(now time.Time, acts []protocol.Action) []protocol.Action {
	acts = c.step(now, acts)
	return c.arm(c.Deadline(), acts)
}
