package crypto

import (
	"math/rand"
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
// Verifier's cached one — on first sight and again once the cache holds
// every success — return exactly the verdicts the scheme's own Verify
// would.
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
					for pass := 0; pass < 2; pass++ {
						if got := v.sig(1, ids[i], digests[i], sigs[i]); got != want[i] {
							t.Fatalf("trial %d: triple %d, pass %d: verifier verdict %v, want %v",
								trial, i, pass, got, want[i])
						}
					}
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
// signer k forged costs k+1 lookups and k+1 curve operations. The honest
// prefix is cached: re-delivering it, as loose votes or as the repaired
// certificate, costs one hit per signature and verifies none of them
// again.
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
		if hits, misses := v.CacheStats(); hits != 0 || misses != int64(k+1) || scheme.verifies != k+1 {
			t.Fatalf("k=%d: %d hits, %d misses, %d verifications, want 0, %d, %d",
				k, hits, misses, scheme.verifies, k+1, k+1)
		}
		for _, vt := range votes[:k] {
			if err := v.VerifyVote(vt); err != nil {
				t.Fatal(err)
			}
		}
		if hits, misses := v.CacheStats(); hits != int64(k) || misses != int64(k+1) || scheme.verifies != k+1 {
			t.Fatalf("k=%d: honest prefix as votes: %d hits, %d misses, %d verifications, want %d, %d, %d",
				k, hits, misses, scheme.verifies, k, k+1, k+1)
		}
		if err := v.VerifyCert(honest, quorum); err != nil {
			t.Fatalf("k=%d: repaired certificate rejected: %v", k, err)
		}
		if hits, misses := v.CacheStats(); hits != int64(2*k) || misses != int64(n+1) || scheme.verifies != n+1 {
			t.Fatalf("k=%d: repaired certificate: %d hits, %d misses, %d verifications, want %d, %d, %d",
				k, hits, misses, scheme.verifies, 2*k, n+1, n+1)
		}
	}
}

// TestVerifierMatchesFreeFunctions: the cached pipeline must agree with
// the package-level verification functions on both accepts and rejects —
// including on repeat calls, where the cache serves the verdict.
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

			for round := 0; round < 3; round++ { // repeat: exercise cache hits
				if got, want := v.VerifyVote(vote), VerifyVote(keyring, vote); (got == nil) != (want == nil) {
					t.Fatalf("round %d: VerifyVote mismatch: %v vs %v", round, got, want)
				}
				if got, want := v.VerifyVote(forged), VerifyVote(keyring, forged); (got == nil) != (want == nil) {
					t.Fatalf("round %d: forged vote mismatch: %v vs %v", round, got, want)
				}
				if got, want := v.VerifyCert(cert, 3), VerifyCert(keyring, cert, 3); (got == nil) != (want == nil) {
					t.Fatalf("round %d: VerifyCert mismatch: %v vs %v", round, got, want)
				}
				if got, want := v.VerifyCert(tampered, 3), VerifyCert(keyring, tampered, 3); (got == nil) != (want == nil) {
					t.Fatalf("round %d: tampered cert mismatch: %v vs %v", round, got, want)
				}
				if got, want := v.VerifyCert(cert, 4), VerifyCert(keyring, cert, 4); (got == nil) != (want == nil) {
					t.Fatalf("round %d: below-quorum mismatch: %v vs %v", round, got, want)
				}
				if got, want := v.VerifyBlock(blk), VerifyBlock(keyring, blk); (got == nil) != (want == nil) {
					t.Fatalf("round %d: VerifyBlock mismatch: %v vs %v", round, got, want)
				}
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
	for round := 0; round < 2; round++ {
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
}

// TestVerifierNeverCachesFailures: a forged signature must be re-checked
// (and re-rejected) on every delivery; only successes may enter the cache.
func TestVerifierNeverCachesFailures(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 2)
	v := NewVerifier(keyring)
	vote := signers[0].SignVote(types.VoteFast, 1, types.BlockID{})
	bad := vote
	bad.Signature = append([]byte(nil), vote.Signature...)
	bad.Signature[3] ^= 1
	for i := 0; i < 5; i++ {
		if err := v.VerifyVote(bad); err == nil {
			t.Fatalf("delivery %d: forged vote accepted", i)
		}
	}
	hits, _ := v.CacheStats()
	if hits != 0 {
		t.Fatalf("forged vote produced %d cache hits", hits)
	}
}

// TestVerifierWarmsCache: loose votes and the certificate that aggregates
// them share cache entries. After VerifyVote of two of a notarization's
// votes, VerifyCert checks only the third signature; after that, the
// third loose vote is a cache hit.
func TestVerifierWarmsCache(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 5)
	v := NewVerifier(keyring)
	var block types.BlockID
	block[1] = 3
	votes := collectVotes(signers, types.VoteNotarize, 2, block, 0, 1, 2)
	cert, err := types.NewCertificate(types.CertNotarization, 2, block, votes)
	if err != nil {
		t.Fatal(err)
	}
	for _, vt := range votes[:2] {
		if err := v.VerifyVote(vt); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.VerifyCert(cert, 3); err != nil {
		t.Fatal(err)
	}
	if hits, misses := v.CacheStats(); hits != 2 || misses != 3 {
		t.Fatalf("VerifyCert after two loose votes: %d hits, %d misses, want 2 and 3", hits, misses)
	}
	if err := v.VerifyVote(votes[2]); err != nil {
		t.Fatal(err)
	}
	if hits, misses := v.CacheStats(); hits != 3 || misses != 3 {
		t.Fatalf("loose vote after its certificate: %d hits, %d misses, want 3 and 3", hits, misses)
	}
}

// TestMalformedAggregatesCostNoLookup: a certificate or unlock proof that
// fails a check needing no signature — unsorted signers, voters and
// signatures out of step, a signer outside the epoch's set, a proof that
// does not establish its claim — is rejected before a single signature is
// looked up, even when every signature it carries is genuine, so a peer
// cannot make the verifier work with an aggregate the engine would
// refuse anyway.
func TestMalformedAggregatesCostNoLookup(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 8)
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
		{"certificate with unsorted signers", func(v *Verifier) error {
			return v.VerifyCert(&types.Certificate{
				Kind:    types.CertNotarization,
				Round:   1,
				Signers: []types.ReplicaID{2, 1, 0},
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
		v := NewVerifier(keyring)
		if err := tc.verify(v); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
		if hits, misses := v.CacheStats(); hits+misses != 0 {
			t.Fatalf("%s cost %d cache lookups, want 0", tc.name, hits+misses)
		}
	}
	// The same aggregates, well-placed, verify: their signatures are
	// genuine, so only the cheap checks above turned them away.
	v := NewVerifier(keyring)
	if err := v.VerifyCertIn(evicted, 3, idSet{0: true, 1: true, 3: true}); err != nil {
		t.Fatal(err)
	}
	if err := v.VerifyUnlockProofIn(proof, 2, idSet{0: true, 1: true, 2: true}); err != nil {
		t.Fatal(err)
	}
}

// TestVerifiedCacheEviction: the cache is round-scoped. Settle drops the
// entries at or below the floor and keeps the rest, an entry for a
// settled round is not admitted, a lower floor changes nothing, and at
// the cap the cache empties before it admits, so it never holds more than
// maxCached keys.
func TestVerifiedCacheEviction(t *testing.T) {
	c := NewVerifiedCache()
	mk := func(i int) CacheKey {
		var k CacheKey
		k[0], k[1], k[2] = byte(i), byte(i>>8), byte(i>>16)
		return k
	}
	for r := 1; r <= 10; r++ {
		for j := 0; j < 3; j++ {
			c.Add(mk(3*r+j), types.Round(r))
		}
	}
	c.Settle(7)
	if c.Len() != 9 || c.Contains(mk(3*7+2)) || !c.Contains(mk(3*8)) {
		t.Fatalf("after Settle(7): %d entries, round 7 held %v, round 8 held %v",
			c.Len(), c.Contains(mk(3*7+2)), c.Contains(mk(3*8)))
	}
	c.Settle(5)
	c.Add(mk(100), 7)
	c.Add(mk(101), 6)
	if c.Len() != 9 || c.Contains(mk(100)) || c.Contains(mk(101)) {
		t.Fatalf("a settled round's entry was admitted: %d entries", c.Len())
	}
	// A validator signing far-future rounds, which no Settle reaches, fills
	// the cache; the next entry empties it first.
	for i := 0; c.Len() < maxCached; i++ {
		c.Add(mk(1000+i), types.Round(1<<40+i))
	}
	c.Add(mk(1<<20), 11)
	if c.Len() != 1 || !c.Contains(mk(1<<20)) {
		t.Fatalf("at the cap: %d entries after one more Add, want only the new one", c.Len())
	}
}

// FuzzBatchVerifyEquivalence: for arbitrary signature mutations, under
// both schemes, the keyring's check and a Verifier's cached one return
// the scheme's own verdict, before and after a valid companion signature
// is cached beside the fuzzed one.
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
			other := (who + 1) % 4
			v := NewVerifier(keyring)
			for pass := 0; pass < 2; pass++ {
				if got := v.sig(1, who, digest, sig); got != want {
					t.Fatalf("%s, pass %d: verifier verdict %v, scheme %v", scheme.Name(), pass, got, want)
				}
				if !v.sig(1, other, digest, signers[other].Sign(digest)) {
					t.Fatalf("%s, pass %d: valid companion signature rejected", scheme.Name(), pass)
				}
			}
		}
	})
}
