package crypto

import (
	"testing"

	"banyan/internal/types"
)

// idSet is a minimal MemberSet for epoch-pinned verification tests.
type idSet map[types.ReplicaID]bool

func (s idSet) Contains(id types.ReplicaID) bool { return s[id] }
func (s idSet) Size() int                        { return len(s) }

// TestVerifyCertInEpochPinning is the unit half of the epoch-straddler
// scenario: a validator removed from the set keeps signing with its old
// key. The key is still registered and the signature still verifies —
// identities are never re-keyed — but a certificate counting the removed
// signer must fail verification pinned to the post-removal epoch, while
// certificates from before the removal keep verifying against their own
// epoch's set.
func TestVerifyCertInEpochPinning(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 5, 1)
	var block types.BlockID
	block[0] = 9
	straddler := 4
	oldSet := idSet{0: true, 1: true, 2: true, 3: true, 4: true} // epoch E
	newSet := idSet{0: true, 1: true, 2: true, 3: true}          // epoch E+1, straddler removed
	const quorum = 3

	// A cert the straddler signed while still a member: valid in its
	// epoch, before and after the set moves on.
	before, err := types.NewCertificate(types.CertNotarization, 10, block,
		collectVotes(signers, types.VoteNotarize, 10, block, 1, 2, straddler))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCertIn(keyring, before, quorum, oldSet); err != nil {
		t.Fatalf("pre-removal certificate rejected in its own epoch: %v", err)
	}

	// A post-removal cert that counts the straddler's forged vote: the
	// signatures are genuine, so unpinned verification passes — only the
	// membership pin catches it.
	after, err := types.NewCertificate(types.CertNotarization, 20, block,
		collectVotes(signers, types.VoteNotarize, 20, block, 1, 2, straddler))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCert(keyring, after, quorum); err != nil {
		t.Fatalf("sanity: forged-quorum cert has genuine signatures, got %v", err)
	}
	if err := VerifyCertIn(keyring, after, quorum, newSet); err == nil {
		t.Fatal("certificate counting a removed validator verified against the new epoch")
	}

	// An honest post-removal quorum passes the pin.
	honest, err := types.NewCertificate(types.CertNotarization, 20, block,
		collectVotes(signers, types.VoteNotarize, 20, block, 0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCertIn(keyring, honest, quorum, newSet); err != nil {
		t.Fatalf("honest new-epoch certificate rejected: %v", err)
	}

	// The Verifier applies the same pin.
	v := NewVerifier(keyring)
	if err := v.VerifyCertIn(after, quorum, newSet); err == nil {
		t.Fatal("Verifier.VerifyCertIn accepted the removed validator's signature")
	}
	if err := v.VerifyCertIn(honest, quorum, newSet); err != nil {
		t.Fatalf("Verifier.VerifyCertIn rejected an honest certificate: %v", err)
	}
}
