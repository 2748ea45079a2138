package crypto

import (
	"runtime"
	"sync"
)

// VerifierPool fans signature verification out over worker goroutines.
// Banyan's fast path makes every round a verification burst: a ⌈3n/4⌉
// fast quorum means substantially more vote signatures per round than a
// plain ⌈2n/3⌉ protocol, and certificates, unlock proofs and re-gossiped
// votes all carry the same signatures again. The Go standard library
// exports no algebraic ed25519 batch verification, so a batch is one
// Verify per signature; the pipeline's wins come from the verified cache
// and from this pool. One logical batch is sharded into one contiguous
// chunk per worker; the call is synchronous, so callers (including the
// deterministic consensus engine) observe the same verdicts regardless of
// worker count or scheduling — parallelism changes wall-clock time only,
// never results.
type VerifierPool struct {
	scheme  Scheme
	workers int
}

// minParallel is the batch size below which the pool verifies inline:
// goroutine fan-out costs more than it saves on tiny batches.
const minParallel = 8

// NewVerifierPool builds a pool over the scheme. workers <= 0 selects
// GOMAXPROCS; workers == 1 verifies everything inline.
func NewVerifierPool(scheme Scheme, workers int) *VerifierPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &VerifierPool{scheme: scheme, workers: workers}
}

// Workers returns the pool's concurrency.
func (p *VerifierPool) Workers() int { return p.workers }

// verify sets every item's verdict.
func (p *VerifierPool) verify(items []sigItem) {
	n := len(items)
	if p.workers == 1 || n < minParallel {
		p.verifyChunk(items)
		return
	}
	// Shard into at most `workers` contiguous chunks of near-equal size;
	// each worker writes a disjoint range of items.
	var wg sync.WaitGroup
	size := (n + min(p.workers, n) - 1) / min(p.workers, n)
	for lo := 0; lo < n; lo += size {
		wg.Add(1)
		go func(chunk []sigItem) {
			defer wg.Done()
			p.verifyChunk(chunk)
		}(items[lo:min(lo+size, n)])
	}
	wg.Wait()
}

func (p *VerifierPool) verifyChunk(items []sigItem) {
	for i := range items {
		it := &items[i]
		it.ok = p.scheme.Verify(it.pub, it.digest, it.sig)
	}
}
