package crypto

// Batched signature verification. Banyan's fast path makes every round a
// verification burst: a ⌈3n/4⌉ fast quorum means substantially more vote
// signatures per round than a plain ⌈2n/3⌉ protocol, and certificates,
// unlock proofs and re-gossiped votes all carry the same signatures again.
// BatchVerifier is the accumulation half of the pipeline: it collects
// (pub, digest, sig) triples and verifies them in one flush. The Go
// standard library exports no algebraic ed25519 batch verification, so a
// flush is one Verify per triple; the pipeline's wins come from the
// verified cache and the worker pool.

// BatchVerifier accumulates signature triples and verifies them together
// on Flush. It is not safe for concurrent use; VerifierPool shards one
// logical batch across several BatchVerifiers.
type BatchVerifier struct {
	scheme  Scheme
	pubs    [][]byte
	digests [][32]byte
	sigs    [][]byte
}

// NewBatchVerifier creates an empty batch for the scheme.
func NewBatchVerifier(scheme Scheme) *BatchVerifier {
	return &BatchVerifier{scheme: scheme}
}

// Add queues one (pub, digest, sig) triple. Slices are retained until the
// next Flush; callers must not mutate them in between.
func (b *BatchVerifier) Add(pub []byte, digest [32]byte, sig []byte) {
	b.pubs = append(b.pubs, pub)
	b.digests = append(b.digests, digest)
	b.sigs = append(b.sigs, sig)
}

// Len returns the number of queued triples.
func (b *BatchVerifier) Len() int { return len(b.pubs) }

// Flush verifies every queued triple exactly once and returns one verdict
// per triple in Add order, resetting the batch.
func (b *BatchVerifier) Flush() []bool {
	out := make([]bool, b.Len())
	for i := range out {
		out[i] = b.scheme.Verify(b.pubs[i], b.digests[i], b.sigs[i])
	}
	b.pubs = b.pubs[:0]
	b.digests = b.digests[:0]
	b.sigs = b.sigs[:0]
	return out
}

// FlushValid flushes and reports whether every queued triple verified.
func (b *BatchVerifier) FlushValid() bool {
	for _, ok := range b.Flush() {
		if !ok {
			return false
		}
	}
	return true
}
