package crypto

import (
	"math/rand"
	"sync"
	"testing"

	"banyan/internal/types"
)

// corruption is one way an adversary can mangle a signature triple.
type corruption int

const (
	corruptNone      corruption = iota // leave the triple valid
	corruptForged                      // flip a bit of the signature
	corruptWrongKey                    // signature by a different replica
	corruptTruncated                   // cut the signature short
	corruptDigest                      // signature over a different digest
	corruptEmpty                       // empty signature
	numCorruptions
)

// buildTriples makes count (signer, digest, signature) triples over
// random digests, applying the corruption chosen by pick(i) to triple i.
// It returns the keyring, the triples and the expected per-triple
// verdicts (computed from the corruption applied, not from calling
// Verify).
func buildTriples(t testing.TB, scheme Scheme, n, count int, seed int64,
	pick func(i int) corruption) (keyring *Keyring, ids []types.ReplicaID, digests [][32]byte, sigs [][]byte, want []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keyring, signers := GenerateCluster(scheme, n, uint64(seed)+1)
	for i := 0; i < count; i++ {
		var digest [32]byte
		rng.Read(digest[:])
		who := rng.Intn(n)
		sig := signers[who].Sign(digest)
		id := types.ReplicaID(who)
		valid := true
		switch pick(i) {
		case corruptForged:
			sig = append([]byte(nil), sig...)
			sig[rng.Intn(len(sig))] ^= 1 << uint(rng.Intn(8))
			valid = false
		case corruptWrongKey:
			id = types.ReplicaID((who + 1 + rng.Intn(n-1)) % n)
			valid = false
		case corruptTruncated:
			sig = sig[:rng.Intn(len(sig))]
			valid = false
		case corruptDigest:
			digest[rng.Intn(32)] ^= 1
			valid = false
		case corruptEmpty:
			sig = nil
			valid = false
		}
		ids = append(ids, id)
		digests = append(digests, digest)
		sigs = append(sigs, sig)
		want = append(want, valid)
	}
	return keyring, ids, digests, sigs, want
}

// TestBatchVerifierMatchesSequential is the core equivalence property:
// for every mix of valid, forged, wrong-key, truncated, wrong-digest and
// empty signatures, under both schemes, the keyring's check and a
// Verifier's return exactly the verdicts the scheme's own Verify would,
// and the Verifier counts each signature once.
func TestBatchVerifierMatchesSequential(t *testing.T) {
	for _, scheme := range schemes() {
		t.Run(scheme.Name(), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)))
				count := 1 + rng.Intn(40)
				keyring, ids, digests, sigs, want := buildTriples(t, scheme, 7, count, int64(trial),
					func(int) corruption { return corruption(rng.Intn(int(numCorruptions))) })
				v := NewVerifier(keyring)
				for i := range want {
					if seq := scheme.Verify(keyring.PublicKey(ids[i]), digests[i], sigs[i]); seq != want[i] {
						t.Fatalf("trial %d: triple %d: scheme verdict %v, want %v", trial, i, seq, want[i])
					}
					if got := keyring.Verify(ids[i], digests[i], sigs[i]); got != want[i] {
						t.Fatalf("trial %d: triple %d: keyring verdict %v, want %v", trial, i, got, want[i])
					}
					if got := v.sig(ids[i], digests[i], sigs[i]); got != want[i] {
						t.Fatalf("trial %d: triple %d: verifier verdict %v, want %v", trial, i, got, want[i])
					}
				}
				if got := v.Verified(); got != int64(count) {
					t.Fatalf("trial %d: %d signatures counted, want %d", trial, got, count)
				}
			}
		})
	}
}

// countingScheme counts Verify calls.
type countingScheme struct {
	Scheme
	verifies int
}

func (c *countingScheme) Verify(pub []byte, digest [32]byte, sig []byte) bool {
	c.verifies++
	return c.Scheme.Verify(pub, digest, sig)
}

// TestCertForgeryStopsAtItsSigner: signatures are checked in signer
// order and checking stops at the first failure, so a certificate whose
// signer k forged costs k+1 curve operations. Nothing is remembered:
// re-delivering the honest prefix, as loose votes or as the repaired
// certificate, costs its signatures again — the engine, not the verifier,
// drops what it already holds.
func TestCertForgeryStopsAtItsSigner(t *testing.T) {
	const n, quorum = 7, 5
	genuine, signers := GenerateCluster(Ed25519(), n, 6)
	pubs := make([][]byte, n)
	for i := range pubs {
		pubs[i] = genuine.PublicKey(types.ReplicaID(i))
	}
	var block types.BlockID
	block[0] = 4
	votes := collectVotes(signers, types.VoteNotarize, 3, block, 0, 1, 2, 3, 4, 5, 6)
	honest, err := types.NewCertificate(types.CertNotarization, 3, block, votes)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < n; k++ {
		scheme := &countingScheme{Scheme: Ed25519()}
		v := NewVerifier(NewKeyring(scheme, pubs))
		forged := *honest
		forged.Sigs = append([][]byte(nil), honest.Sigs...)
		forged.Sigs[k] = append([]byte(nil), honest.Sigs[k]...)
		forged.Sigs[k][0] ^= 1
		if err := v.VerifyCert(&forged, quorum); err == nil {
			t.Fatalf("k=%d: certificate with a forgery accepted", k)
		}
		if got := v.Verified(); got != int64(k+1) || scheme.verifies != k+1 {
			t.Fatalf("k=%d: %d signatures counted, %d verifications, want %d", k, got, scheme.verifies, k+1)
		}
		for _, vt := range votes[:k] {
			if err := v.VerifyVote(vt); err != nil {
				t.Fatal(err)
			}
		}
		if got := v.Verified(); got != int64(2*k+1) || scheme.verifies != 2*k+1 {
			t.Fatalf("k=%d: honest prefix as votes: %d signatures counted, %d verifications, want %d",
				k, got, scheme.verifies, 2*k+1)
		}
		if err := v.VerifyCert(honest, quorum); err != nil {
			t.Fatalf("k=%d: repaired certificate rejected: %v", k, err)
		}
		if got := v.Verified(); got != int64(2*k+1+n) || scheme.verifies != 2*k+1+n {
			t.Fatalf("k=%d: repaired certificate: %d signatures counted, %d verifications, want %d",
				k, got, scheme.verifies, 2*k+1+n)
		}
	}
}

// TestVerifierCountsConcurrentChecks: a Verifier is checked from several
// goroutines at once (its engine, a metrics scrape reading the count),
// and the count is exact.
func TestVerifierCountsConcurrentChecks(t *testing.T) {
	keyring, signers := GenerateCluster(HMAC(), 4, 9)
	v := NewVerifier(keyring)
	const goroutines, each = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				vote := signers[g].SignVote(types.VoteFast, types.Round(i+1), types.BlockID{byte(g)})
				if err := v.VerifyVote(vote); err != nil {
					t.Error(err)
					return
				}
				_ = v.Verified()
			}
		}()
	}
	wg.Wait()
	if got := v.Verified(); got != goroutines*each {
		t.Fatalf("%d signatures counted, want %d", got, goroutines*each)
	}
}

// TestVerifierMatchesFreeFunctions: the pipeline must agree with the
// package-level verification functions on both accepts and rejects.
func TestVerifierMatchesFreeFunctions(t *testing.T) {
	for _, scheme := range schemes() {
		t.Run(scheme.Name(), func(t *testing.T) {
			keyring, signers := GenerateCluster(scheme, 4, 3)
			v := NewVerifier(keyring)
			var block types.BlockID
			block[2] = 9

			vote := signers[1].SignVote(types.VoteNotarize, 5, block)
			forged := vote
			forged.Voter = 2

			votes := collectVotes(signers, types.VoteNotarize, 5, block, 0, 1, 3)
			cert, err := types.NewCertificate(types.CertNotarization, 5, block, votes)
			if err != nil {
				t.Fatal(err)
			}
			tampered := &types.Certificate{
				Kind: cert.Kind, Round: cert.Round, Block: cert.Block,
				Signers: append([]types.ReplicaID(nil), cert.Signers...),
				Sigs:    append([][]byte(nil), cert.Sigs...),
			}
			tampered.Sigs[1] = append([]byte(nil), tampered.Sigs[1]...)
			tampered.Sigs[1][0] ^= 1

			blk := types.NewBlock(5, 2, 1, types.BlockID{}, types.BytesPayload([]byte("x")))
			if err := signers[2].SignBlock(blk); err != nil {
				t.Fatal(err)
			}

			if got, want := v.VerifyVote(vote), VerifyVote(keyring, vote); (got == nil) != (want == nil) {
				t.Fatalf("VerifyVote mismatch: %v vs %v", got, want)
			}
			if got, want := v.VerifyVote(forged), VerifyVote(keyring, forged); (got == nil) != (want == nil) {
				t.Fatalf("forged vote mismatch: %v vs %v", got, want)
			}
			if got, want := v.VerifyCert(cert, 3), VerifyCert(keyring, cert, 3); (got == nil) != (want == nil) {
				t.Fatalf("VerifyCert mismatch: %v vs %v", got, want)
			}
			if got, want := v.VerifyCert(tampered, 3), VerifyCert(keyring, tampered, 3); (got == nil) != (want == nil) {
				t.Fatalf("tampered cert mismatch: %v vs %v", got, want)
			}
			if got, want := v.VerifyCert(cert, 4), VerifyCert(keyring, cert, 4); (got == nil) != (want == nil) {
				t.Fatalf("below-quorum mismatch: %v vs %v", got, want)
			}
			if got, want := v.VerifyBlock(blk), VerifyBlock(keyring, blk); (got == nil) != (want == nil) {
				t.Fatalf("VerifyBlock mismatch: %v vs %v", got, want)
			}
		})
	}
}

// TestVerifierUnlockProofMatches mirrors TestVerifyUnlockProof through the
// pipeline, including the falsified-rank rejection.
func TestVerifierUnlockProofMatches(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 1)
	v := NewVerifier(keyring)
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
	if err := v.VerifyUnlockProof(proof, 2); err != nil {
		t.Fatal(err)
	}
	if err := v.VerifyUnlockProof(proof, 3); err == nil {
		t.Fatal("proof accepted above its support")
	}
	if err := v.VerifyUnlockProof(nil, 1); err == nil {
		t.Fatal("nil proof accepted")
	}
	lied := *proof
	lied.Entries = []types.UnlockEntry{proof.Entries[0]}
	lied.Entries[0].Header.Rank = 1
	if err := v.VerifyUnlockProof(&lied, 2); err == nil {
		t.Fatal("proof with falsified rank accepted")
	}
}

// TestMalformedAggregatesCostNoCurveOperation: a certificate or unlock
// proof that fails a check needing no signature — a signer named twice, voters
// and signatures out of step, a signer outside the epoch's set, a proof
// that does not establish its claim — is rejected before a single
// signature is verified, even when every signature it carries is genuine,
// so a peer cannot make the verifier work with an aggregate the engine
// would refuse anyway.
func TestMalformedAggregatesCostNoCurveOperation(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 8)
	pubs := make([][]byte, keyring.N())
	for i := range pubs {
		pubs[i] = keyring.PublicKey(types.ReplicaID(i))
	}
	sig := signers[0].Sign([32]byte{})
	var block types.BlockID
	block[0] = 2
	evicted, err := types.NewCertificate(types.CertNotarization, 1, block,
		collectVotes(signers, types.VoteNotarize, 1, block, 0, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	b := types.NewBlock(1, 0, 0, types.BlockID{}, types.BytesPayload([]byte("b")))
	fast := collectVotes(signers, types.VoteFast, 1, b.ID(), 0, 1, 2)
	proof := &types.UnlockProof{Round: 1, Block: b.ID(), Entries: []types.UnlockEntry{{
		Header: b.Header(),
		Voters: []types.ReplicaID{0, 1, 2},
		Sigs:   [][]byte{fast[0].Signature, fast[1].Signature, fast[2].Signature},
	}}}
	for _, tc := range []struct {
		name   string
		verify func(v *Verifier) error
	}{
		{"certificate with a duplicate signer", func(v *Verifier) error {
			return v.VerifyCert(&types.Certificate{
				Kind:    types.CertNotarization,
				Round:   1,
				Signers: []types.ReplicaID{0, 1, 0},
				Sigs:    [][]byte{sig, sig, sig},
			}, 3)
		}},
		{"unlock proof with more voters than signatures", func(v *Verifier) error {
			return v.VerifyUnlockProof(&types.UnlockProof{Round: 1, Entries: []types.UnlockEntry{{
				Voters: []types.ReplicaID{0, 1},
				Sigs:   [][]byte{sig},
			}}}, 2)
		}},
		{"certificate counting an evicted validator", func(v *Verifier) error {
			return v.VerifyCertIn(evicted, 3, idSet{0: true, 1: true, 2: true})
		}},
		{"unlock proof with an evicted voter", func(v *Verifier) error {
			return v.VerifyUnlockProofIn(proof, 2, idSet{0: true, 1: true, 3: true})
		}},
		{"unlock proof that does not establish its claim", func(v *Verifier) error {
			return v.VerifyUnlockProof(proof, 3)
		}},
	} {
		scheme := &countingScheme{Scheme: Ed25519()}
		v := NewVerifier(NewKeyring(scheme, pubs))
		if err := tc.verify(v); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
		if scheme.verifies != 0 || v.Verified() != 0 {
			t.Fatalf("%s cost %d curve operations (%d counted), want 0", tc.name, scheme.verifies, v.Verified())
		}
	}
	// The same aggregates, well-placed, verify: their signatures are
	// genuine, so only the cheap checks above turned them away.
	v := NewVerifier(keyring)
	if err := v.VerifyCertIn(evicted, 3, idSet{0: true, 1: true, 3: true}); err != nil {
		t.Fatal(err)
	}
	// Signers in any order: a permutation of distinct genuine signers is
	// the certificate an engine forms from votes in arrival order.
	permuted := *evicted
	permuted.Signers = []types.ReplicaID{evicted.Signers[2], evicted.Signers[0], evicted.Signers[1]}
	permuted.Sigs = [][]byte{evicted.Sigs[2], evicted.Sigs[0], evicted.Sigs[1]}
	if err := v.VerifyCertIn(&permuted, 3, idSet{0: true, 1: true, 3: true}); err != nil {
		t.Fatalf("permuted certificate: %v", err)
	}
	if err := v.VerifyUnlockProofIn(proof, 2, idSet{0: true, 1: true, 2: true}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBatchVerifyEquivalence: for arbitrary signature mutations, under
// both schemes, the keyring's check and a Verifier's return the scheme's
// own verdict.
func FuzzBatchVerifyEquivalence(f *testing.F) {
	f.Add([]byte{0}, uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3}, uint8(3), uint8(64))
	f.Add([]byte{}, uint8(7), uint8(255))
	f.Fuzz(func(t *testing.T, mutation []byte, whoRaw, cut uint8) {
		for _, scheme := range schemes() {
			keyring, signers := GenerateCluster(scheme, 4, 11)
			who := types.ReplicaID(whoRaw % 4)
			var digest [32]byte
			copy(digest[:], mutation)
			sig := signers[who].Sign(digest)
			// Mutate the signature with the fuzzed bytes: XOR then truncate.
			sig = append([]byte(nil), sig...)
			for i, b := range mutation {
				sig[i%len(sig)] ^= b
			}
			if int(cut) < len(sig) {
				sig = sig[:cut]
			}
			want := scheme.Verify(keyring.PublicKey(who), digest, sig)
			if got := keyring.Verify(who, digest, sig); got != want {
				t.Fatalf("%s: keyring verdict %v, scheme %v", scheme.Name(), got, want)
			}
			if got := NewVerifier(keyring).sig(who, digest, sig); got != want {
				t.Fatalf("%s: verifier verdict %v, scheme %v", scheme.Name(), got, want)
			}
		}
	})
}
