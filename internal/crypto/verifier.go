package crypto

import (
	"sync/atomic"

	"banyan/internal/types"
)

// Verifier is one replica's verification pipeline: its keyring, and a
// count of the signatures it verified. It runs the same rules as the
// package-level VerifyBlock / VerifyVote / VerifyCert / VerifyUnlockProof
// functions — each rule has one body, in crypto.go — checking every
// signature inline, once, in signer order, and stopping at the first
// failure. Nothing is remembered between calls: the engine it serves
// calls it only for what it reads, after dropping what it already holds
// or has settled, so a replayed message costs no signature check.
//
// A Verifier serves one replica and is safe for concurrent use.
type Verifier struct {
	check
	n atomic.Int64
}

// NewVerifier builds a verification pipeline over the keyring.
func NewVerifier(kr *Keyring) *Verifier {
	v := &Verifier{}
	v.check = check{kr: kr, verified: &v.n}
	return v
}

// Keyring returns the keyring the verifier checks against.
func (v *Verifier) Keyring() *Keyring { return v.kr }

// Verified returns the cumulative number of signatures the verifier has
// checked, valid or not.
func (v *Verifier) Verified() int64 { return v.n.Load() }

// VerifyBlock checks the proposer signature on a block.
func (v *Verifier) VerifyBlock(b *types.Block) error { return v.block(b) }

// VerifyHeader checks the proposer signature on a signed header — the
// same signature VerifyBlock checks on the block it belongs to.
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
