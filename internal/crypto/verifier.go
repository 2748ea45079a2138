package crypto

import "banyan/internal/types"

// Verifier is the cached verification pipeline over one keyring. It runs
// the same rules as the package-level VerifyBlock / VerifyVote /
// VerifyCert / VerifyUnlockProof functions — each rule has one body, in
// crypto.go — but checks every signature through a VerifiedCache, so
// re-gossiped votes and certificates cost one cache lookup instead of a
// curve operation. Signatures are checked inline, one at a time, in
// signer order. The engine it serves calls it only for what it reads,
// after dropping settled rounds, and publishes its settled floor here
// (Settle) so the cache drops and no longer admits those rounds.
//
// A Verifier serves one replica and is safe for concurrent use.
type Verifier struct {
	check
}

// NewVerifier builds a verification pipeline over the keyring.
func NewVerifier(kr *Keyring) *Verifier {
	return &Verifier{check{kr: kr, cache: NewVerifiedCache()}}
}

// Keyring returns the keyring the verifier checks against.
func (v *Verifier) Keyring() *Keyring { return v.kr }

// CacheStats returns cumulative cache (hits, misses).
func (v *Verifier) CacheStats() (hits, misses int64) { return v.cache.Stats() }

// Settle tells the cache that round r is settled: the engine has
// finalized it and moved past it, so no vote, certificate or unlock proof
// for a round up to r is verified again. The cache drops its entries for
// those rounds and admits none. A lower r than before is ignored.
func (v *Verifier) Settle(r types.Round) { v.cache.Settle(r) }

// VerifyBlock checks the proposer signature on a block.
func (v *Verifier) VerifyBlock(b *types.Block) error { return v.block(b) }

// VerifyHeader checks the proposer signature on a signed header — the
// same signature VerifyBlock checks on the block it belongs to, so a
// header relay warms the cache for the body and vice versa.
func (v *Verifier) VerifyHeader(h *types.SignedHeader) error { return v.header(h) }

// VerifyVote checks a single vote's signature.
func (v *Verifier) VerifyVote(vt types.Vote) error { return v.vote(vt) }

// VerifyCert checks a certificate's shape and every signature.
func (v *Verifier) VerifyCert(c *types.Certificate, quorum int) error { return v.cert(c, quorum, nil) }

// VerifyUnlockProof checks that an unlock proof establishes its claim and
// that its fast votes are genuine.
func (v *Verifier) VerifyUnlockProof(u *types.UnlockProof, threshold int) error {
	return v.unlockProof(u, threshold, nil)
}

// VerifyCertIn is VerifyCert pinned to an epoch's validator set: every
// signer must additionally be a member. See the package-level VerifyCertIn
// for why the member check — not the signature check — is what evicts a
// removed validator's still-valid signatures.
func (v *Verifier) VerifyCertIn(c *types.Certificate, quorum int, set MemberSet) error {
	return v.cert(c, quorum, set)
}

// VerifyUnlockProofIn is VerifyUnlockProof pinned to an epoch's validator
// set: every fast-vote voter must additionally be a member.
func (v *Verifier) VerifyUnlockProofIn(u *types.UnlockProof, threshold int, set MemberSet) error {
	return v.unlockProof(u, threshold, set)
}
