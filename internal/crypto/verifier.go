package crypto

import (
	"fmt"
	"sync"
	"sync/atomic"

	"banyan/internal/types"
)

// Verifier is the batched, cached verification pipeline over one keyring.
// It offers the same checks as the package-level VerifyBlock / VerifyVote /
// VerifyCert / VerifyUnlockProof functions — byte-for-byte identical
// verdicts — but verifies signature sets through a worker pool of
// GOMAXPROCS goroutines and remembers successes, so re-gossiped votes and certificates cost one
// cache lookup instead of a curve operation. PreverifyMessage additionally
// lets a transport stage warm the cache off the consensus goroutine — for
// the rounds that can still decide something: the engine the verifier
// serves publishes its settled floor here (Settle), preverification
// skips every signature made for a round at or below it, and the cache
// drops and no longer admits them.
//
// A Verifier serves one replica and is safe for concurrent use.
type Verifier struct {
	kr    *Keyring
	pool  *VerifierPool
	cache *VerifiedCache

	// settled is the highest round the replica's engine has both finalized
	// and left; skipped counts the signatures gather passed over for it.
	settled atomic.Uint64
	skipped atomic.Int64
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

// Settle raises the settled floor to r: the engine has finalized round r
// and moved past it, so no vote, certificate or unlock proof for a round
// up to r can change its state, and it drops them unverified. The cache
// drops its entries for those rounds with them. The floor only rises; a
// lower r is ignored. A preverification worker that reads a floor from
// before the raise merely verifies a signature the engine will not look
// at, and the cache does not keep it.
func (v *Verifier) Settle(r types.Round) {
	for {
		cur := v.settled.Load()
		if uint64(r) <= cur {
			return
		}
		if v.settled.CompareAndSwap(cur, uint64(r)) {
			v.cache.Settle(r)
			return
		}
	}
}

// SettledFloor returns the highest round published through Settle.
func (v *Verifier) SettledFloor() types.Round { return types.Round(v.settled.Load()) }

// SettledSkipped returns how many signatures preverification has skipped
// because their round was settled.
func (v *Verifier) SettledSkipped() int64 { return v.skipped.Load() }

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
// there are two or more: flush hands its slice back, cleared, so a
// message or aggregate that brings several new signatures allocates
// nothing once the pool is warm. A new slice has room for 16, and one
// that grew past that goes back grown.
var sigItems = sync.Pool{New: func() any {
	s := make([]sigItem, 0, 16)
	return &s
}}

// sigBatch collects the uncached signatures of one aggregate (certificate
// or unlock proof) or one inbound message for a pooled flush. The first
// one queued is held in the batch itself and verified inline, so an
// aggregate the cache already covers, a message that is settled
// throughout, and a message that brings one new signature — a vote — never
// touch the slice pool; a second one takes a slice from it.
type sigBatch struct {
	v     *Verifier
	first sigItem
	items *[]sigItem // every queued signature, first included, once there are two
	n     int        // signatures queued
	// bad is the index (into the caller's ordering) of the first signer
	// whose key was out of range, or -1.
	bad int
	// limit, when positive, caps how many signatures may be queued
	// (preverification's defense against signature-stuffed messages).
	limit int
	// floor is the settled floor gather read for this message (zero for
	// the engine's own checks, which decide settledness themselves), and
	// skipped the signatures passed over because of it.
	floor   types.Round
	skipped int
}

// full reports whether the batch reached its queue limit.
func (b *sigBatch) full() bool {
	return b.limit > 0 && b.n >= b.limit
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

// PreverifyMessage verifies the signatures a consensus message carries
// and caches the valid ones, without judging the message itself — quorum
// thresholds and protocol rules remain the engine's job. It is the verify
// half of a verify-then-deliver stage: transports call it on worker
// goroutines so that the consensus goroutine's own verification becomes
// cache lookups. Invalid signatures are simply not cached (the engine
// will reject them); malformed messages are ignored.
//
// Only what can still decide something is verified: votes, certificates,
// unlock proofs, header relays and proposal-carried credentials for a
// round at or below the settled floor are skipped, because the engine
// drops exactly those before it consults the verifier (core's settled
// check). The floor read here may trail the engine's; that only verifies
// a signature nobody will look up, never skips one the engine still
// needs.
//
// Because preverification runs before any protocol-level validation, it
// is a CPU-amplification target: a Byzantine peer could stuff one message
// with an arbitrary number of garbage signatures. Two defenses bound the
// work to what the engine itself would risk: aggregates must pass the
// same structural checks the engine applies first (sorted unique in-range
// signers), and the total signatures verified per message are capped at a
// small multiple of the cluster size — anything beyond the cap is left
// for the engine, which rejects malformed aggregates before verifying.
func (v *Verifier) PreverifyMessage(msg types.Message) {
	batch := v.newSigBatch()
	batch.limit = 4 * v.kr.N()
	batch.floor = v.SettledFloor()
	v.gather(&batch, msg)
	if batch.skipped > 0 {
		v.skipped.Add(int64(batch.skipped))
	}
	batch.flush()
}

// gather queues every signature of a message into the batch, except
// those made for a round at or below the batch's settled floor.
func (v *Verifier) gather(b *sigBatch, msg types.Message) {
	switch m := msg.(type) {
	case *types.Proposal:
		if m.Block != nil && !m.Block.IsGenesis() {
			b.add(0, m.Block.Round, m.Block.Proposer, blockDigest(m.Block.ID()), m.Block.Signature)
		} else if h := m.Header; h != nil && m.Block == nil {
			// Header relay: 80 bytes to hash, whatever the payload — and
			// none for a settled round, whose relays the engine drops
			// unhashed (its credentials are settled with it, below).
			if h.Round <= b.floor {
				b.skipped++
			} else {
				b.add(0, h.Round, h.Proposer, blockDigest(h.ID()), h.Signature)
			}
		}
		if m.FastVote != nil {
			v.gatherVote(b, m.FastVote)
		}
		v.gatherCert(b, m.ParentNotarization)
		v.gatherUnlock(b, m.ParentUnlock)
	case *types.VoteMsg:
		for i := range m.Votes {
			if b.full() {
				return
			}
			v.gatherVote(b, &m.Votes[i])
		}
	case *types.CertMsg:
		v.gatherCert(b, m.Cert)
	case *types.Advance:
		v.gatherCert(b, m.Notarization)
		v.gatherUnlock(b, m.Unlock)
	case *types.SyncResponse:
		for _, blk := range m.Blocks {
			if b.full() {
				return
			}
			if blk != nil && !blk.IsGenesis() {
				b.add(0, blk.Round, blk.Proposer, blockDigest(blk.ID()), blk.Signature)
			}
		}
		v.gatherCert(b, m.Finalization)
	case *types.SnapshotResponse:
		for _, blk := range m.Chain {
			if b.full() {
				return
			}
			if blk != nil && !blk.IsGenesis() {
				b.add(0, blk.Round, blk.Proposer, blockDigest(blk.ID()), blk.Signature)
			}
		}
		v.gatherCert(b, m.Finalization)
	}
}

// gatherVote queues one vote's signature.
func (v *Verifier) gatherVote(b *sigBatch, vt *types.Vote) {
	switch {
	case !vt.Kind.Valid():
	case vt.Round <= b.floor:
		b.skipped++
	default:
		b.add(0, vt.Round, vt.Voter, vt.Digest(), vt.Signature)
	}
}

// gatherCert queues a certificate's signatures, but only when the
// certificate passes the engine's structural checks (sorted unique
// in-range signers, which also bounds them at keyring.N()) — the engine
// rejects anything else before verifying a single signature, so
// preverifying it would be free work for an attacker.
func (v *Verifier) gatherCert(b *sigBatch, c *types.Certificate) {
	if c == nil {
		return
	}
	if c.Round <= b.floor {
		b.skipped += len(c.Sigs)
		return
	}
	if c.CheckShape(v.kr.N(), 1) != nil {
		return
	}
	digests := c.SignerDigests()
	for i, signer := range c.Signers {
		if b.full() {
			return
		}
		b.add(0, c.Round, signer, digests[c.FastBit(i)], c.Sigs[i])
	}
}

// gatherUnlock queues an unlock proof's fast votes, entry by entry,
// skipping entries that fail the structural rules Evaluate enforces
// (aligned voter/sig lists, strictly ascending voters — which bounds each
// entry at keyring.N() votes).
func (v *Verifier) gatherUnlock(b *sigBatch, u *types.UnlockProof) {
	if u == nil {
		return
	}
	if u.Round <= b.floor {
		for _, e := range u.Entries {
			b.skipped += len(e.Sigs)
		}
		return
	}
	for _, e := range u.Entries {
		if len(e.Voters) != len(e.Sigs) || !ascendingVoters(e.Voters) {
			continue
		}
		id := e.Header.ID()
		digest := types.VoteDigest(types.VoteFast, u.Round, id)
		for i, voter := range e.Voters {
			if b.full() {
				return
			}
			b.add(0, u.Round, voter, digest, e.Sigs[i])
		}
	}
}

func ascendingVoters(voters []types.ReplicaID) bool {
	for i := 1; i < len(voters); i++ {
		if voters[i-1] >= voters[i] {
			return false
		}
	}
	return true
}
