package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"banyan/internal/types"
)

// VerifiedCache remembers signatures that have already verified, so that
// re-gossiped material is never re-verified. Banyan re-delivers the same
// signatures constantly: a vote arrives in a VoteMsg, again inside the
// notarization certificate of the Advance broadcast, again in relayed
// proposals' parent credentials, and fast votes reappear inside unlock
// proofs. Keys bind the scheme, public key, digest and signature bytes, so
// a hit proves this exact verification succeeded before; both schemes are
// deterministic, making the cached verdict sound. Only successes are
// cached — a forged signature is re-checked (and re-rejected) every time.
//
// The cache is round-scoped: every entry records the round its signature
// was made for, Settle drops the entries at or below the settled floor,
// and an entry for a settled round is not stored — nothing verifies a
// settled round's signatures again. It therefore holds the rounds in
// flight, not a fixed capacity, and allocates nothing up front. It is
// safe for concurrent use: the node's preverification workers warm it
// while the consensus goroutine reads it.
type VerifiedCache struct {
	mu    sync.Mutex
	m     map[CacheKey]types.Round // key -> its signature's round; nil until the first Add
	floor types.Round              // the settled floor: no entry at or below it

	hits, misses int64
}

// CacheKey identifies one verified (scheme, pub, digest, sig) triple.
type CacheKey [32]byte

// maxCached caps the entries whatever the rounds in flight. Honest
// traffic stays far below it — a round brings about two signatures per
// validator, and Settle drops a round once it is finalized and left — but
// a validator that signs for far-future rounds, which no Settle reaches,
// could fill it. At the cap Add empties the cache before it stores the
// new entry: what was dropped is verified again the next time it is
// seen, so such a validator costs CPU, never memory.
const maxCached = 8192

// NewVerifiedCache builds an empty cache.
func NewVerifiedCache() *VerifiedCache { return &VerifiedCache{} }

// VerifiedKey computes the cache key for a signature triple.
func VerifiedKey(scheme Scheme, pub []byte, digest [32]byte, sig []byte) CacheKey {
	h := sha256.New()
	h.Write([]byte("banyan/verified/v1/"))
	h.Write([]byte(scheme.Name()))
	var lens [8]byte
	binary.LittleEndian.PutUint32(lens[0:4], uint32(len(pub)))
	binary.LittleEndian.PutUint32(lens[4:8], uint32(len(sig)))
	h.Write(lens[:])
	h.Write(pub)
	h.Write(digest[:])
	h.Write(sig)
	var k CacheKey
	h.Sum(k[:0])
	return k
}

// Contains reports whether the key was verified before.
func (c *VerifiedCache) Contains(k CacheKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return ok
}

// Add records a verified key for a signature made for round r, unless r
// is settled.
func (c *VerifiedCache) Add(k CacheKey, r types.Round) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[k]; ok || r <= c.floor {
		return
	}
	switch {
	case c.m == nil:
		c.m = make(map[CacheKey]types.Round)
	case len(c.m) >= maxCached:
		clear(c.m)
	}
	c.m[k] = r
}

// Settle raises the floor to r and drops every entry at or below it. The
// floor only rises; a lower r is ignored.
func (c *VerifiedCache) Settle(r types.Round) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r <= c.floor {
		return
	}
	c.floor = r
	for k, kr := range c.m {
		if kr <= r {
			delete(c.m, k)
		}
	}
}

// Len returns the number of cached keys.
func (c *VerifiedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats returns cumulative (hits, misses) of Contains lookups.
func (c *VerifiedCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
