package crypto

import (
	"fmt"
	"sync"

	"banyan/internal/types"
)

// Verifier is the batched, cached verification pipeline over one keyring.
// It offers the same checks as the package-level VerifyBlock / VerifyVote /
// VerifyCert / VerifyUnlockProof functions — byte-for-byte identical
// verdicts — but verifies an aggregate's uncached signatures through a
// worker pool of GOMAXPROCS goroutines and remembers successes, so
// re-gossiped votes and certificates cost one cache lookup instead of a
// curve operation. The engine it serves calls it only for what it reads,
// after dropping settled rounds, and publishes its settled floor here
// (Settle) so the cache drops and no longer admits those rounds.
//
// A Verifier serves one replica and is safe for concurrent use.
type Verifier struct {
	kr    *Keyring
	pool  *VerifierPool
	cache *VerifiedCache
}

// NewVerifier builds a verification pipeline over the keyring, with a
// worker pool of GOMAXPROCS.
func NewVerifier(kr *Keyring) *Verifier {
	return &Verifier{
		kr:    kr,
		pool:  NewVerifierPool(kr.Scheme(), 0),
		cache: NewVerifiedCache(),
	}
}

// Keyring returns the keyring the verifier checks against.
func (v *Verifier) Keyring() *Keyring { return v.kr }

// CacheStats returns cumulative cache (hits, misses).
func (v *Verifier) CacheStats() (hits, misses int64) {
	return v.cache.Stats()
}

// Settle tells the cache that round r is settled: the engine has
// finalized it and moved past it, so no vote, certificate or unlock proof
// for a round up to r is verified again. The cache drops its entries for
// those rounds and admits none. A lower r than before is ignored.
func (v *Verifier) Settle(r types.Round) { v.cache.Settle(r) }

// verifyOne checks a single signature, made for round r, through the
// cache.
func (v *Verifier) verifyOne(r types.Round, id types.ReplicaID, digest [32]byte, sig []byte) bool {
	pub := v.kr.PublicKey(id)
	if pub == nil {
		return false
	}
	key := VerifiedKey(v.kr.scheme, pub, digest, sig)
	if v.cache.Contains(key) {
		return true
	}
	if !v.kr.scheme.Verify(pub, digest, sig) {
		return false
	}
	v.cache.Add(key, r)
	return true
}

// sigItem is one queued signature: the triple to verify, the round it was
// made for, its cache key, its index in the caller's ordering, and the
// verdict once flushed.
type sigItem struct {
	pub    []byte
	digest [32]byte
	sig    []byte
	round  types.Round
	key    CacheKey
	seq    int
	ok     bool
}

// sigItems recycles the slices a sigBatch queues its signatures in once
// there are two or more: flush hands its slice back, cleared, so an
// aggregate that brings several new signatures allocates nothing once
// the pool is warm. A new slice has room for 16, and one that grew past
// that goes back grown.
var sigItems = sync.Pool{New: func() any {
	s := make([]sigItem, 0, 16)
	return &s
}}

// sigBatch collects the uncached signatures of one aggregate (certificate
// or unlock proof) for a pooled flush. The first one queued is held in
// the batch itself and verified inline, so an aggregate the cache already
// covers, or that brings one new signature, never touches the slice pool;
// a second one takes a slice from it.
type sigBatch struct {
	v     *Verifier
	first sigItem
	items *[]sigItem // every queued signature, first included, once there are two
	n     int        // signatures queued
	// bad is the index (into the caller's ordering) of the first signer
	// whose key was out of range, or -1.
	bad int
}

func (v *Verifier) newSigBatch() sigBatch {
	return sigBatch{v: v, bad: -1}
}

// add queues signer seq's signature, made for round r, unless it is
// already cached. It reports false when the signer has no key in the
// keyring.
func (b *sigBatch) add(seq int, r types.Round, id types.ReplicaID, digest [32]byte, sig []byte) bool {
	pub := b.v.kr.PublicKey(id)
	if pub == nil {
		if b.bad < 0 {
			b.bad = seq
		}
		return false
	}
	item := sigItem{pub: pub, digest: digest, sig: sig, round: r, seq: seq,
		key: VerifiedKey(b.v.kr.scheme, pub, digest, sig)}
	if b.v.cache.Contains(item.key) {
		return true
	}
	switch b.n {
	case 0:
		b.first = item
	case 1:
		b.items = sigItems.Get().(*[]sigItem)
		*b.items = append(*b.items, b.first, item)
	default:
		*b.items = append(*b.items, item)
	}
	b.n++
	return true
}

// flush verifies the queued signatures — one inline, more through the
// pool — caches the successes, and returns the caller-ordering index of
// the first failure (including any out-of-range signer recorded by add),
// or -1 when every signature verified. A slice taken from the pool goes
// back to it, cleared.
func (b *sigBatch) flush() int {
	firstBad := b.bad
	settle := func(it *sigItem) {
		if !it.ok {
			if firstBad < 0 || it.seq < firstBad {
				firstBad = it.seq
			}
			return
		}
		b.v.cache.Add(it.key, it.round)
	}
	switch {
	case b.n == 1:
		b.first.ok = b.v.kr.scheme.Verify(b.first.pub, b.first.digest, b.first.sig)
		settle(&b.first)
	case b.n > 1:
		items := *b.items
		b.v.pool.verify(items)
		for i := range items {
			settle(&items[i])
		}
		clear(items)
		*b.items = items[:0]
		sigItems.Put(b.items)
		b.items = nil
	}
	return firstBad
}

// VerifyBlock checks the proposer signature on a block; it is the cached
// counterpart of the package-level VerifyBlock.
func (v *Verifier) VerifyBlock(b *types.Block) error {
	if b.IsGenesis() {
		return nil
	}
	if !v.verifyOne(b.Round, b.Proposer, blockDigest(b.ID()), b.Signature) {
		return fmt.Errorf("crypto: bad proposer signature on %v", b)
	}
	return nil
}

// VerifyHeader checks the proposer signature on a signed header — the
// same signature VerifyBlock checks on the block it belongs to, so a
// header relay warms the cache for the body and vice versa, and no
// payload is hashed to get there.
func (v *Verifier) VerifyHeader(h *types.SignedHeader) error {
	if !v.verifyOne(h.Round, h.Proposer, blockDigest(h.ID()), h.Signature) {
		return fmt.Errorf("crypto: bad proposer signature on header r=%d id=%s", h.Round, h.ID())
	}
	return nil
}

// VerifyVote checks a single vote's signature; cached counterpart of the
// package-level VerifyVote.
func (v *Verifier) VerifyVote(vt types.Vote) error {
	if !vt.Kind.Valid() {
		return fmt.Errorf("crypto: invalid vote kind in %v", vt)
	}
	if !v.verifyOne(vt.Round, vt.Voter, vt.Digest(), vt.Signature) {
		return fmt.Errorf("crypto: bad signature on %v", vt)
	}
	return nil
}

// VerifyCert checks a certificate — shape, then every signature through
// the pool and cache; cached counterpart of the package-level VerifyCert.
func (v *Verifier) VerifyCert(c *types.Certificate, quorum int) error {
	if c == nil {
		return fmt.Errorf("crypto: nil certificate")
	}
	if err := c.CheckShape(v.kr.N(), quorum); err != nil {
		return err
	}
	digests := c.SignerDigests()
	batch := v.newSigBatch()
	for i, signer := range c.Signers {
		batch.add(i, c.Round, signer, digests[c.FastBit(i)], c.Sigs[i])
	}
	if bad := batch.flush(); bad >= 0 {
		return fmt.Errorf("crypto: bad signature by %d in %v", c.Signers[bad], c)
	}
	return nil
}

// VerifyUnlockProof checks an unlock proof's fast votes through the pool
// and cache, then re-evaluates the claim; cached counterpart of the
// package-level VerifyUnlockProof.
func (v *Verifier) VerifyUnlockProof(u *types.UnlockProof, threshold int) error {
	if u == nil {
		return fmt.Errorf("crypto: nil unlock proof")
	}
	total := 0
	for _, e := range u.Entries {
		if len(e.Voters) != len(e.Sigs) {
			return fmt.Errorf("crypto: unlock entry voters/sigs mismatch in %v", u)
		}
		total += len(e.Voters)
	}
	type ref struct {
		voter types.ReplicaID
		id    types.BlockID
	}
	refs := make([]ref, 0, total)
	batch := v.newSigBatch()
	for _, e := range u.Entries {
		id := e.Header.ID()
		digest := types.VoteDigest(types.VoteFast, u.Round, id)
		for i, voter := range e.Voters {
			batch.add(len(refs), u.Round, voter, digest, e.Sigs[i])
			refs = append(refs, ref{voter: voter, id: id})
		}
	}
	if bad := batch.flush(); bad >= 0 {
		return fmt.Errorf("crypto: bad fast vote by %d for %s in %v",
			refs[bad].voter, refs[bad].id, u)
	}
	if !u.Evaluate(threshold) {
		return fmt.Errorf("crypto: unlock proof does not establish its claim: %v", u)
	}
	return nil
}

// VerifyCertIn is VerifyCert pinned to an epoch's validator set: every
// signer must additionally be a member. See the package-level VerifyCertIn
// for why the member check — not the signature check — is what evicts a
// removed validator's still-valid signatures.
func (v *Verifier) VerifyCertIn(c *types.Certificate, quorum int, set MemberSet) error {
	if err := v.VerifyCert(c, quorum); err != nil {
		return err
	}
	for _, signer := range c.Signers {
		if !set.Contains(signer) {
			return fmt.Errorf("crypto: signer %d not a member of the certificate's epoch in %v", signer, c)
		}
	}
	return nil
}

// VerifyUnlockProofIn is VerifyUnlockProof pinned to an epoch's validator
// set: every fast-vote voter must additionally be a member.
func (v *Verifier) VerifyUnlockProofIn(u *types.UnlockProof, threshold int, set MemberSet) error {
	if u == nil {
		return fmt.Errorf("crypto: nil unlock proof")
	}
	for _, e := range u.Entries {
		for _, voter := range e.Voters {
			if !set.Contains(voter) {
				return fmt.Errorf("crypto: fast voter %d not a member of the proof's epoch in %v", voter, u)
			}
		}
	}
	return v.VerifyUnlockProof(u, threshold)
}
