package crypto

import (
	"testing"
	"testing/quick"

	"banyan/internal/types"
)

func schemes() []Scheme { return []Scheme{Ed25519(), HMAC()} }

func TestSignVerifyBothSchemes(t *testing.T) {
	for _, scheme := range schemes() {
		t.Run(scheme.Name(), func(t *testing.T) {
			keyring, signers := GenerateCluster(scheme, 4, 1)
			digest := [32]byte{1, 2, 3}
			sig := signers[2].Sign(digest)
			if len(sig) != scheme.SignatureSize() {
				t.Fatalf("signature size %d, want %d", len(sig), scheme.SignatureSize())
			}
			if !keyring.Verify(2, digest, sig) {
				t.Fatal("valid signature rejected")
			}
			if keyring.Verify(1, digest, sig) {
				t.Fatal("signature verified under wrong replica")
			}
			bad := append([]byte(nil), sig...)
			bad[0] ^= 1
			if keyring.Verify(2, digest, bad) {
				t.Fatal("tampered signature accepted")
			}
			other := digest
			other[5] ^= 1
			if keyring.Verify(2, other, sig) {
				t.Fatal("signature verified over wrong digest")
			}
		})
	}
}

func TestDeterministicKeyGeneration(t *testing.T) {
	for _, scheme := range schemes() {
		k1, _ := GenerateCluster(scheme, 4, 99)
		k2, _ := GenerateCluster(scheme, 4, 99)
		k3, _ := GenerateCluster(scheme, 4, 100)
		for i := types.ReplicaID(0); i < 4; i++ {
			if string(k1.PublicKey(i)) != string(k2.PublicKey(i)) {
				t.Fatalf("%s: same seed produced different keys", scheme.Name())
			}
			if string(k1.PublicKey(i)) == string(k3.PublicKey(i)) {
				t.Fatalf("%s: different seeds produced identical keys", scheme.Name())
			}
		}
	}
}

func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"", "ed25519", "hmac"} {
		if _, err := SchemeByName(name); err != nil {
			t.Errorf("SchemeByName(%q): %v", name, err)
		}
	}
	if _, err := SchemeByName("rsa"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestSignVerifyVote(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 1)
	var block types.BlockID
	block[3] = 9
	v := signers[1].SignVote(types.VoteFast, 7, block)
	if v.Voter != 1 || v.Kind != types.VoteFast || v.Round != 7 {
		t.Fatalf("unexpected vote %v", v)
	}
	if err := VerifyVote(keyring, v); err != nil {
		t.Fatal(err)
	}
	forged := v
	forged.Voter = 2
	if err := VerifyVote(keyring, forged); err == nil {
		t.Fatal("vote with reassigned voter accepted")
	}
	wrongKind := v
	wrongKind.Kind = types.VoteNotarize
	if err := VerifyVote(keyring, wrongKind); err == nil {
		t.Fatal("vote with altered kind accepted (kind must bind the digest)")
	}
	badKind := v
	badKind.Kind = 99
	if err := VerifyVote(keyring, badKind); err == nil {
		t.Fatal("invalid vote kind accepted")
	}
}

func TestSignVerifyBlock(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 1)
	b := types.NewBlock(3, 2, 1, types.BlockID{}, types.BytesPayload([]byte("payload")))
	if err := signers[2].SignBlock(b); err != nil {
		t.Fatal(err)
	}
	if err := VerifyBlock(keyring, b); err != nil {
		t.Fatal(err)
	}
	if err := signers[1].SignBlock(b); err == nil {
		t.Fatal("signer accepted a block proposed by another replica")
	}
	// A payload change changes the ID, invalidating the signature.
	forged := types.NewBlock(3, 2, 1, types.BlockID{}, types.BytesPayload([]byte("other")))
	forged.Signature = b.Signature
	if err := VerifyBlock(keyring, forged); err == nil {
		t.Fatal("signature transplanted to a different block accepted")
	}
	if err := VerifyBlock(keyring, types.Genesis()); err != nil {
		t.Fatal("genesis must verify without a signature")
	}
}

func collectVotes(signers []*Signer, kind types.VoteKind, round types.Round,
	block types.BlockID, ids ...int) []types.Vote {
	votes := make([]types.Vote, 0, len(ids))
	for _, i := range ids {
		votes = append(votes, signers[i].SignVote(kind, round, block))
	}
	return votes
}

func TestVerifyCert(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 1)
	var block types.BlockID
	block[0] = 5
	votes := collectVotes(signers, types.VoteNotarize, 4, block, 0, 1, 3)
	cert, err := types.NewCertificate(types.CertNotarization, 4, block, votes)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCert(keyring, cert, 3); err != nil {
		t.Fatal(err)
	}
	if err := VerifyCert(keyring, cert, 4); err == nil {
		t.Fatal("below-quorum certificate accepted")
	}
	if err := VerifyCert(keyring, nil, 1); err == nil {
		t.Fatal("nil certificate accepted")
	}
	// Tamper with one signature.
	cert.Sigs[1] = append([]byte(nil), cert.Sigs[1]...)
	cert.Sigs[1][0] ^= 1
	if err := VerifyCert(keyring, cert, 3); err == nil {
		t.Fatal("certificate with tampered signature accepted")
	}
}

func TestVerifyCertRejectsForeignVotes(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 1)
	_, otherSigners := GenerateCluster(Ed25519(), 4, 2)
	var block types.BlockID
	votes := collectVotes(signers, types.VoteNotarize, 4, block, 0, 1)
	votes = append(votes, otherSigners[3].SignVote(types.VoteNotarize, 4, block))
	cert, err := types.NewCertificate(types.CertNotarization, 4, block, votes)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCert(keyring, cert, 3); err == nil {
		t.Fatal("certificate containing a foreign-cluster vote accepted")
	}
}

// TestVerifyMixedNotarization: each signature of a notarization is
// checked against the digest its signer is marked as having signed —
// fast-vote digest for marked signers, notarization-vote digest for the
// rest — by the free function and the Verifier alike, and a genuine
// signature under the wrong marker value is a bad signature.
func TestVerifyMixedNotarization(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 1)
	block := types.BlockID{5}
	fast := collectVotes(signers, types.VoteFast, 4, block, 0, 3)
	bare := collectVotes(signers, types.VoteNotarize, 4, block, 1)
	cert, err := types.NewCertificate(types.CertNotarization, 4, block, append(fast, bare...))
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(keyring)
	verdicts := func(c *types.Certificate) (free, pipeline error) {
		return VerifyCert(keyring, c, 3), NewVerifier(keyring).VerifyCert(c, 3)
	}
	if free, pipeline := verdicts(cert); free != nil || pipeline != nil {
		t.Fatalf("mixed notarization: %v / %v", free, pipeline)
	}
	// The fast voters' signatures are the ones their loose fast votes
	// carry: both verify through one Verifier.
	for _, vt := range fast {
		if err := v.VerifyVote(vt); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.VerifyCert(cert, 3); err != nil {
		t.Fatal(err)
	}
	// Either marker value, wrong: signer 0's fast signature unmarked,
	// signer 1's notarization signature marked.
	for i := range cert.Signers {
		forged := *cert
		forged.Fast = append([]byte(nil), cert.Fast...)
		forged.Fast[0] ^= 1 << i
		if free, pipeline := verdicts(&forged); free == nil || pipeline == nil {
			t.Errorf("signer %d's marker flipped: accepted (%v / %v)", cert.Signers[i], free, pipeline)
		}
	}
	// No marker at all over fast signatures, and the marker on any other
	// kind of certificate — even one whose signatures all do cover the
	// fast-vote digest.
	unmarked := *cert
	unmarked.Fast = nil
	if free, pipeline := verdicts(&unmarked); free == nil || pipeline == nil {
		t.Error("fast signatures accepted as notarization signatures")
	}
	ff, err := types.NewCertificate(types.CertFastFinalization, 4, block,
		collectVotes(signers, types.VoteFast, 4, block, 0, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if free, pipeline := verdicts(ff); free != nil || pipeline != nil {
		t.Fatalf("fast finalization: %v / %v", free, pipeline)
	}
	ff.Fast = []byte{0b111}
	if free, pipeline := verdicts(ff); free == nil || pipeline == nil {
		t.Error("marker accepted on a fast-finalization certificate")
	}
	// A marker bit for a non-signer.
	padded := *cert
	padded.Fast = []byte{cert.Fast[0] | 0b1000}
	if free, pipeline := verdicts(&padded); free == nil || pipeline == nil {
		t.Error("marker naming a non-signer accepted")
	}
}

func TestVerifyUnlockProof(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 1)
	b := types.NewBlock(5, 0, 0, types.BlockID{}, types.BytesPayload([]byte("b")))
	id := b.ID()
	votes := collectVotes(signers, types.VoteFast, 5, id, 0, 1, 2)
	proof := &types.UnlockProof{
		Round: 5,
		Block: id,
		Entries: []types.UnlockEntry{{
			Header: b.Header(),
			Voters: []types.ReplicaID{0, 1, 2},
			Sigs:   [][]byte{votes[0].Signature, votes[1].Signature, votes[2].Signature},
		}},
	}
	if err := VerifyUnlockProof(keyring, proof, 2); err != nil {
		t.Fatal(err)
	}
	// Above the threshold the claim fails structurally.
	if err := VerifyUnlockProof(keyring, proof, 3); err == nil {
		t.Fatal("proof accepted above its support")
	}
	if err := VerifyUnlockProof(keyring, nil, 1); err == nil {
		t.Fatal("nil proof accepted")
	}
	// A header with a falsified rank changes the header ID, so the fast
	// votes no longer verify against it — rank claims are hash-bound.
	lied := *proof
	lied.Entries = []types.UnlockEntry{proof.Entries[0]}
	lied.Entries[0].Header.Rank = 1
	if err := VerifyUnlockProof(keyring, &lied, 2); err == nil {
		t.Fatal("proof with falsified rank accepted")
	}
}

// TestQuickSignVerify property: every signed digest verifies under the
// right key and fails under any other replica's key.
func TestQuickSignVerify(t *testing.T) {
	for _, scheme := range schemes() {
		keyring, signers := GenerateCluster(scheme, 4, 7)
		f := func(digest [32]byte, who uint8) bool {
			id := types.ReplicaID(who % 4)
			sig := signers[id].Sign(digest)
			if !keyring.Verify(id, digest, sig) {
				return false
			}
			return !keyring.Verify((id+1)%4, digest, sig)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", scheme.Name(), err)
		}
	}
}

func TestKeyringBounds(t *testing.T) {
	keyring, _ := GenerateCluster(HMAC(), 4, 1)
	if keyring.PublicKey(4) != nil {
		t.Fatal("out-of-range public key returned")
	}
	if keyring.Verify(9, [32]byte{}, []byte("x")) {
		t.Fatal("out-of-range replica verified")
	}
	if keyring.N() != 4 {
		t.Fatalf("N = %d, want 4", keyring.N())
	}
}
