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

// buildTriples makes count signature triples over random digests, applying
// the corruption chosen by pick(i) to triple i. It returns the triples and
// the expected per-triple verdicts (computed from the corruption applied,
// not from calling Verify).
func buildTriples(t testing.TB, scheme Scheme, n, count int, seed int64,
	pick func(i int) corruption) (pubs [][]byte, digests [][32]byte, sigs [][]byte, want []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	_, signers := GenerateCluster(scheme, n, uint64(seed)+1)
	keyring, _ := GenerateCluster(scheme, n, uint64(seed)+1)
	for i := 0; i < count; i++ {
		var digest [32]byte
		rng.Read(digest[:])
		who := rng.Intn(n)
		sig := signers[who].Sign(digest)
		pub := keyring.PublicKey(types.ReplicaID(who))
		valid := true
		switch pick(i) {
		case corruptForged:
			sig = append([]byte(nil), sig...)
			sig[rng.Intn(len(sig))] ^= 1 << uint(rng.Intn(8))
			valid = false
		case corruptWrongKey:
			other := (who + 1 + rng.Intn(n-1)) % n
			pub = keyring.PublicKey(types.ReplicaID(other))
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
		pubs = append(pubs, pub)
		digests = append(digests, digest)
		sigs = append(sigs, sig)
		want = append(want, valid)
	}
	return pubs, digests, sigs, want
}

// verifyMany runs the pool over every (pub, digest, sig) triple and
// returns one verdict per triple, in order.
func verifyMany(p *VerifierPool, pubs [][]byte, digests [][32]byte, sigs [][]byte) []bool {
	items := make([]sigItem, len(pubs))
	for i := range items {
		items[i] = sigItem{pub: pubs[i], digest: digests[i], sig: sigs[i]}
	}
	p.verify(items)
	out := make([]bool, len(items))
	for i := range items {
		out[i] = items[i].ok
	}
	return out
}

// verifyManyValid reports whether every triple verifies.
func verifyManyValid(p *VerifierPool, pubs [][]byte, digests [][32]byte, sigs [][]byte) bool {
	for _, ok := range verifyMany(p, pubs, digests, sigs) {
		if !ok {
			return false
		}
	}
	return true
}

// TestBatchVerifierMatchesSequential is the core equivalence property:
// for every mix of valid, forged, wrong-key, truncated, wrong-digest and
// empty signatures, under both schemes, an inline batch (a one-worker
// pool) returns exactly the verdicts per-signature Verify would.
func TestBatchVerifierMatchesSequential(t *testing.T) {
	for _, scheme := range schemes() {
		t.Run(scheme.Name(), func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)))
				count := 1 + rng.Intn(40)
				pubs, digests, sigs, want := buildTriples(t, scheme, 7, count, int64(trial),
					func(int) corruption { return corruption(rng.Intn(int(numCorruptions))) })

				got := verifyMany(NewVerifierPool(scheme, 1), pubs, digests, sigs)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d: triple %d: batch verdict %v, want %v",
							trial, i, got[i], want[i])
					}
					if seq := scheme.Verify(pubs[i], digests[i], sigs[i]); seq != want[i] {
						t.Fatalf("trial %d: triple %d: sequential verdict %v, want %v",
							trial, i, seq, want[i])
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

// TestBatchVerifierVerifiesEachTripleOnce: one forgery in a batch must not
// make the batch verify the honest signatures around it a second time.
func TestBatchVerifierVerifiesEachTripleOnce(t *testing.T) {
	pubs, digests, sigs, _ := buildTriples(t, Ed25519(), 5, 33, 1,
		func(i int) corruption {
			if i == 16 {
				return corruptForged
			}
			return corruptNone
		})
	scheme := &countingScheme{Scheme: Ed25519()}
	if verifyManyValid(NewVerifierPool(scheme, 1), pubs, digests, sigs) {
		t.Fatal("batch with a forgery reported all valid")
	}
	if scheme.verifies != len(pubs) {
		t.Fatalf("%d verifications for %d triples", scheme.verifies, len(pubs))
	}
}

// TestVerifierPoolMatchesSequential checks the pool at several worker
// counts, including fan-outs larger than the batch.
func TestVerifierPoolMatchesSequential(t *testing.T) {
	for _, scheme := range schemes() {
		for _, workers := range []int{1, 2, 4, 64} {
			pubs, digests, sigs, want := buildTriples(t, scheme, 9, 50, int64(workers),
				func(i int) corruption { return corruption(i % int(numCorruptions)) })
			pool := NewVerifierPool(scheme, workers)
			got := verifyMany(pool, pubs, digests, sigs)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: triple %d got %v want %v",
						scheme.Name(), workers, i, got[i], want[i])
				}
			}
			if verifyManyValid(pool, pubs, digests, sigs) {
				t.Fatalf("%s workers=%d: mixed batch reported all-valid", scheme.Name(), workers)
			}
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
// fails its structural checks — unsorted signers, voters and signatures
// out of step — is rejected before a single signature is looked up, so a
// peer cannot make the verifier work with an aggregate the engine would
// refuse anyway.
func TestMalformedAggregatesCostNoLookup(t *testing.T) {
	keyring, signers := GenerateCluster(HMAC(), 4, 8)
	v := NewVerifier(keyring)
	sig := signers[0].Sign([32]byte{})
	if err := v.VerifyCert(&types.Certificate{
		Kind:    types.CertNotarization,
		Round:   1,
		Signers: []types.ReplicaID{2, 1, 0},
		Sigs:    [][]byte{sig, sig, sig},
	}, 3); err == nil {
		t.Fatal("certificate with unsorted signers accepted")
	}
	if err := v.VerifyUnlockProof(&types.UnlockProof{Round: 1, Entries: []types.UnlockEntry{{
		Voters: []types.ReplicaID{0, 1},
		Sigs:   [][]byte{sig},
	}}}, 2); err == nil {
		t.Fatal("unlock proof with more voters than signatures accepted")
	}
	if hits, misses := v.CacheStats(); hits+misses != 0 {
		t.Fatalf("malformed aggregates cost %d cache lookups, want 0", hits+misses)
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

// FuzzBatchVerifyEquivalence: for arbitrary signature mutations, the
// batch verdict must equal the sequential verdict, under both schemes.
func FuzzBatchVerifyEquivalence(f *testing.F) {
	f.Add([]byte{0}, uint8(0), uint8(0))
	f.Add([]byte{1, 2, 3}, uint8(3), uint8(64))
	f.Add([]byte{}, uint8(7), uint8(255))
	f.Fuzz(func(t *testing.T, mutation []byte, whoRaw, cut uint8) {
		for _, scheme := range schemes() {
			keyring, signers := GenerateCluster(scheme, 4, 11)
			who := int(whoRaw) % 4
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
			pub := keyring.PublicKey(types.ReplicaID(who))
			want := scheme.Verify(pub, digest, sig)

			// Pair the fuzzed triple with a valid one so a failing batch
			// exercises the mixed per-signature fallback.
			other := signers[(who+1)%4].Sign(digest)
			got := verifyMany(NewVerifierPool(scheme, 1),
				[][]byte{pub, keyring.PublicKey(types.ReplicaID((who + 1) % 4))},
				[][32]byte{digest, digest}, [][]byte{sig, other})
			if got[0] != want {
				t.Fatalf("%s: batch verdict %v, sequential %v", scheme.Name(), got[0], want)
			}
			if !got[1] {
				t.Fatalf("%s: valid companion signature rejected", scheme.Name())
			}
		}
	})
}
