package crypto

import (
	"sync"
	"testing"

	"banyan/internal/types"
)

// The settled floor: what the engine publishes through Settle, and what
// the cache drops and no longer admits because of it.

// roundMaterial signs one round's worth of credentials at n=4: the block
// and three votes of every kind for it.
type roundMaterial struct {
	block *types.Block
	votes []types.Vote // notarize ×3, fast ×3, finalize ×3
}

func signRound(t testing.TB, signers []*Signer, round types.Round) roundMaterial {
	t.Helper()
	b := types.NewBlock(round, 0, 0, types.BlockID{}, types.BytesPayload([]byte{byte(round)}))
	if err := signers[0].SignBlock(b); err != nil {
		t.Fatal(err)
	}
	m := roundMaterial{block: b}
	for _, kind := range []types.VoteKind{types.VoteNotarize, types.VoteFast, types.VoteFinalize} {
		m.votes = append(m.votes, collectVotes(signers, kind, round, b.ID(), 0, 1, 2)...)
	}
	return m
}

// settledFloor reads the floor Settle raised.
func settledFloor(v *Verifier) types.Round {
	v.cache.mu.Lock()
	defer v.cache.mu.Unlock()
	return v.cache.floor
}

// TestSettleIsMonotone: the floor only rises, whatever order and from
// however many goroutines it is raised.
func TestSettleIsMonotone(t *testing.T) {
	keyring, _ := GenerateCluster(HMAC(), 4, 1)
	v := NewVerifier(keyring)
	v.Settle(5)
	v.Settle(3)
	if settledFloor(v) != 5 {
		t.Fatalf("floor = %d after Settle(5), Settle(3)", settledFloor(v))
	}
	// Eight writers raise it through interleaved, unordered sequences.
	var (
		wg   sync.WaitGroup
		want types.Round
	)
	for g := 0; g < 8; g++ {
		seq := make([]types.Round, 500)
		for i := range seq {
			seq[i] = types.Round(6 + (i*7+g*13)%1000)
			if seq[i] > want {
				want = seq[i]
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := types.Round(0)
			for _, r := range seq {
				v.Settle(r)
				if now := settledFloor(v); now < last || now < r {
					t.Errorf("floor read %d after Settle(%d), previously %d", now, r, last)
				} else {
					last = now
				}
			}
		}()
	}
	wg.Wait()
	if settledFloor(v) != want {
		t.Fatalf("floor = %d after concurrent raises, want the maximum %d", settledFloor(v), want)
	}
}

// TestAllocRegressionSettledVoteMsg: checking the votes a late VoteMsg
// brings for a settled round allocates nothing and admits nothing to the
// cache.
func TestAllocRegressionSettledVoteMsg(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 4)
	v := NewVerifier(keyring)
	msg := &types.VoteMsg{Votes: signRound(t, signers, 7).votes}
	v.Settle(7)
	if n := testing.AllocsPerRun(100, func() {
		for _, vt := range msg.Votes {
			if err := v.VerifyVote(vt); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("VerifyVote of a settled round's votes allocates %.0f times, want 0", n)
	}
	if v.cache.Len() != 0 {
		t.Fatalf("%d settled signatures cached", v.cache.Len())
	}
}

// TestAllocRegressionOneVoteMsg: verifying the one new signature a
// VoteMsg brings allocates nothing, uncached (one miss, one inline
// verification, one cache insert) or cached.
func TestAllocRegressionOneVoteMsg(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 4)
	v := NewVerifier(keyring)
	const runs = 50
	var msgs []*types.VoteMsg
	for r := 0; r < runs+1; r++ { // AllocsPerRun makes a warm-up call
		vote := signers[1].SignVote(types.VoteFast, types.Round(r+1), types.BlockID{byte(r)})
		msgs = append(msgs, &types.VoteMsg{Votes: []types.Vote{vote}})
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		if err := v.VerifyVote(msgs[next].Votes[0]); err != nil {
			t.Fatal(err)
		}
		next++
	}); n != 0 {
		t.Fatalf("VerifyVote of an uncached vote allocates %.0f times, want 0", n)
	}
	if hits, misses := v.CacheStats(); hits != 0 || misses != int64(next) || v.cache.Len() != next {
		t.Fatalf("%d hits, %d misses, %d cached over %d new votes", hits, misses, v.cache.Len(), next)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if err := v.VerifyVote(msgs[0].Votes[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("VerifyVote of a cached vote allocates %.0f times, want 0", n)
	}
}

// TestAllocRegressionUncachedAdvance: an Advance whose 3-signer
// notarization is new — three signatures looked up, verified and cached
// one after another — and the Settle that later drops them allocate
// nothing once the cache's table is warm.
func TestAllocRegressionUncachedAdvance(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 4)
	v := NewVerifier(keyring)
	const runs, warm = 50, 10
	var advs []*types.Advance
	for r := types.Round(1); r <= warm+runs+1; r++ {
		id := types.BlockID{byte(r)}
		cert, err := types.NewCertificate(types.CertNotarization, r, id,
			collectVotes(signers, types.VoteNotarize, r, id, 0, 1, 3))
		if err != nil {
			t.Fatal(err)
		}
		advs = append(advs, &types.Advance{Notarization: cert})
	}
	next := 0
	step := func() {
		cert := advs[next].Notarization
		if err := v.VerifyCert(cert, 3); err != nil {
			t.Fatal(err)
		}
		v.Settle(cert.Round - 1)
		next++
	}
	for next < warm {
		step()
	}
	if n := testing.AllocsPerRun(runs, step); n != 0 {
		t.Fatalf("VerifyCert of an uncached Advance allocates %.0f times, want 0", n)
	}
	if hits, misses := v.CacheStats(); hits != 0 || misses != int64(3*next) || v.cache.Len() != 3 {
		t.Fatalf("%d hits, %d misses, %d cached over %d Advances", hits, misses, v.cache.Len(), next)
	}
}

// TestCacheHoldsOnlyUnsettledRounds: after 1000 rounds settled two behind
// the newest, the cache holds the two unsettled rounds' signatures and no
// more, and a signature for a settled round verifies without being
// admitted — checking it again costs a second miss.
func TestCacheHoldsOnlyUnsettledRounds(t *testing.T) {
	keyring, signers := GenerateCluster(HMAC(), 4, 12)
	v := NewVerifier(keyring)
	const rounds = 1000
	for r := types.Round(1); r <= rounds; r++ {
		id := types.BlockID{byte(r), byte(r >> 8)}
		for _, vt := range collectVotes(signers, types.VoteNotarize, r, id, 0, 1, 2) {
			if err := v.VerifyVote(vt); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.VerifyBlock(signRound(t, signers, r).block); err != nil {
			t.Fatal(err)
		}
		if r > 2 {
			v.Settle(r - 2)
		}
	}
	if n := v.cache.Len(); n != 2*(3+1) {
		t.Fatalf("%d entries cached after %d rounds, want the %d of rounds %d and %d",
			n, rounds, 2*(3+1), rounds-1, rounds)
	}
	late := signers[3].SignVote(types.VoteFinalize, 5, types.BlockID{5})
	for i := 0; i < 2; i++ {
		_, before := v.CacheStats()
		if err := v.VerifyVote(late); err != nil {
			t.Fatal(err)
		}
		if _, after := v.CacheStats(); after != before+1 || v.cache.Len() != 2*(3+1) {
			t.Fatalf("check %d of a settled round's vote: %d misses, %d cached", i+1, after-before, v.cache.Len())
		}
	}
}
