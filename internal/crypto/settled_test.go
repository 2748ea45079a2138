package crypto

import (
	"sync"
	"testing"

	"banyan/internal/types"
)

// The settled floor: what the engine publishes through Settle, and what
// preverification skips because of it.

// roundMaterial signs one round's worth of credentials at n=4: three
// votes of every kind for one block, the notarization built from them, an
// unlock proof over the fast votes, and the block itself.
type roundMaterial struct {
	block  *types.Block
	votes  []types.Vote // notarize ×3, fast ×3, finalize ×3
	notar  *types.Certificate
	final  *types.Certificate
	unlock *types.UnlockProof
}

func signRound(t testing.TB, signers []*Signer, round types.Round) roundMaterial {
	t.Helper()
	b := types.NewBlock(round, 0, 0, types.BlockID{}, types.BytesPayload([]byte{byte(round)}))
	if err := signers[0].SignBlock(b); err != nil {
		t.Fatal(err)
	}
	id := b.ID()
	m := roundMaterial{block: b}
	notar := collectVotes(signers, types.VoteNotarize, round, id, 0, 1, 2)
	fast := collectVotes(signers, types.VoteFast, round, id, 0, 1, 2)
	final := collectVotes(signers, types.VoteFinalize, round, id, 0, 1, 2)
	m.votes = append(append(append(m.votes, notar...), fast...), final...)
	var err error
	if m.notar, err = types.NewCertificate(types.CertNotarization, round, id, notar); err != nil {
		t.Fatal(err)
	}
	if m.final, err = types.NewCertificate(types.CertFastFinalization, round, id, fast); err != nil {
		t.Fatal(err)
	}
	m.unlock = &types.UnlockProof{Round: round, Block: id, Entries: []types.UnlockEntry{{
		Header: b.Header(),
		Voters: []types.ReplicaID{0, 1, 2},
		Sigs:   [][]byte{fast[0].Signature, fast[1].Signature, fast[2].Signature},
	}}}
	return m
}

func lookups(v *Verifier) int64 {
	hits, misses := v.CacheStats()
	return hits + misses
}

// TestSettleIsMonotone: the floor only rises, whatever order and from
// however many goroutines it is raised.
func TestSettleIsMonotone(t *testing.T) {
	keyring, _ := GenerateCluster(HMAC(), 4, 1)
	v := NewVerifier(keyring)
	v.Settle(5)
	v.Settle(3)
	if v.SettledFloor() != 5 {
		t.Fatalf("floor = %d after Settle(5), Settle(3)", v.SettledFloor())
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
				if now := v.SettledFloor(); now < last || now < r {
					t.Errorf("floor read %d after Settle(%d), previously %d", now, r, last)
				} else {
					last = now
				}
			}
		}()
	}
	wg.Wait()
	if v.SettledFloor() != want {
		t.Fatalf("floor = %d after concurrent raises, want the maximum %d", v.SettledFloor(), want)
	}
}

// TestPreverifySkipsSettledRounds: with the floor at round 1, every
// round-1 credential — loose votes, certificates, an unlock proof, and
// what a proposal carries for its parent — costs no cache lookup, while
// the same credentials for round 2 are verified and cached.
func TestPreverifySkipsSettledRounds(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 3)
	v := NewVerifier(keyring)
	r1, r2 := signRound(t, signers, 1), signRound(t, signers, 2)
	v.Settle(1)

	settled := []types.Message{
		&types.VoteMsg{Votes: r1.votes},
		&types.CertMsg{Cert: r1.notar},
		&types.CertMsg{Cert: r1.final},
		&types.Advance{Notarization: r1.notar, Unlock: r1.unlock},
		&types.SyncResponse{Finalization: r1.final},
	}
	for _, m := range settled {
		v.PreverifyMessage(m)
	}
	if n := lookups(v); n != 0 {
		t.Fatalf("settled credentials cost %d cache lookups, want 0", n)
	}
	if want := int64(9 + 3 + 3 + 3 + 3 + 3); v.SettledSkipped() != want {
		t.Fatalf("SettledSkipped = %d, want %d", v.SettledSkipped(), want)
	}

	// A header relay for the settled round: neither the proposer signature
	// nor the fast vote and credentials it carries, and nothing allocated.
	relay := &types.Proposal{
		Header: r1.block.SignedHeader(), Relayed: true, FastVote: &r1.votes[3],
		ParentNotarization: r1.notar, ParentUnlock: r1.unlock,
	}
	skipped := v.SettledSkipped()
	if n := testing.AllocsPerRun(10, func() { v.PreverifyMessage(relay) }); n != 0 {
		t.Fatalf("PreverifyMessage of a settled header relay allocates %.0f times", n)
	}
	if n := lookups(v); n != 0 {
		t.Fatalf("a settled header relay cost %d cache lookups, want 0", n)
	}
	if got := v.SettledSkipped() - skipped; got != 11*(1+1+3+3) {
		t.Fatalf("settled header relay: %d signatures skipped over 11 calls, want %d", got, 11*8)
	}
	// The same relay for the live round is one lookup per signature.
	v.PreverifyMessage(&types.Proposal{Header: r2.block.SignedHeader(), Relayed: true})
	if n := lookups(v); n != 1 {
		t.Fatalf("a live header relay cost %d lookups, want 1", n)
	}

	// A round-2 proposal: its own block and fast vote are verified, the
	// round-1 parent credentials it carries are not.
	v.PreverifyMessage(&types.Proposal{
		Block: r2.block, FastVote: &r2.votes[3],
		ParentNotarization: r1.notar, ParentUnlock: r1.unlock,
	})
	if n := lookups(v); n != 3 { // the block's signature is the relay's: a hit
		t.Fatalf("round-2 proposal cost %d lookups, want 2 more", n)
	}
	// A mixed vote message: only the live half is verified.
	before := lookups(v)
	v.PreverifyMessage(&types.VoteMsg{Votes: append(append([]types.Vote(nil), r1.votes[:3]...), r2.votes[:3]...)})
	if n := lookups(v) - before; n != 3 {
		t.Fatalf("mixed VoteMsg cost %d lookups, want 3", n)
	}
	// Round 2 is live: everything for it is verified, and the engine-side
	// check afterwards is pure cache hits.
	v.PreverifyMessage(&types.Advance{Notarization: r2.notar, Unlock: r2.unlock})
	_, missesBefore := v.CacheStats()
	if err := v.VerifyCert(r2.notar, 3); err != nil {
		t.Fatal(err)
	}
	if err := v.VerifyUnlockProof(r2.unlock, 2); err != nil {
		t.Fatal(err)
	}
	if _, misses := v.CacheStats(); misses != missesBefore {
		t.Fatalf("live credentials were not preverified (%d misses on the engine side)", misses-missesBefore)
	}
	// The engine's own entry points never consult the floor: the engine
	// decides settledness itself, on its own state.
	if err := v.VerifyCert(r1.notar, 3); err != nil {
		t.Fatal(err)
	}
	if _, misses := v.CacheStats(); misses != missesBefore+3 {
		t.Fatal("VerifyCert skipped a settled-round certificate it was asked to verify")
	}
}

// TestPreverifyUnderAdvancingFloor runs preverification workers against a
// floor that rises while they work (run under -race). Whatever each
// worker read, no vote is lost between the two outcomes: every vote is
// either verified or counted as skipped, and every vote above the final
// floor is in the cache.
func TestPreverifyUnderAdvancingFloor(t *testing.T) {
	const rounds = 200
	keyring, signers := GenerateCluster(HMAC(), 4, 9)
	v := NewVerifier(keyring)
	msgs := make([]*types.VoteMsg, rounds+1)
	for r := 1; r <= rounds; r++ {
		var id types.BlockID
		id[0], id[1] = byte(r), byte(r>>8)
		msgs[r] = &types.VoteMsg{Votes: collectVotes(signers, types.VoteNotarize, types.Round(r), id, 0, 1, 2)}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 1 + w; r <= rounds; r += 4 {
				v.PreverifyMessage(msgs[r])
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 1; r <= rounds/2; r++ {
			v.Settle(types.Round(r))
		}
	}()
	wg.Wait()

	floor := v.SettledFloor()
	if floor != rounds/2 {
		t.Fatalf("floor = %d, want %d", floor, rounds/2)
	}
	_, verified := v.CacheStats()
	if got := verified + v.SettledSkipped(); got != 3*rounds {
		t.Fatalf("%d verified + %d skipped = %d, want %d", verified, v.SettledSkipped(), got, 3*rounds)
	}
	_, missesBefore := v.CacheStats()
	for r := int(floor) + 1; r <= rounds; r++ {
		for _, vt := range msgs[r].Votes {
			if err := v.VerifyVote(vt); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, misses := v.CacheStats(); misses != missesBefore {
		t.Fatalf("%d votes above the floor were skipped by a worker", misses-missesBefore)
	}
}

// TestAllocRegressionSettledVoteMsg: a vote message that is settled
// throughout costs preverification nothing — no batch, no digest, no
// cache key.
func TestAllocRegressionSettledVoteMsg(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 4)
	v := NewVerifier(keyring)
	msg := &types.VoteMsg{Votes: signRound(t, signers, 7).votes}
	v.Settle(7)
	if n := testing.AllocsPerRun(100, func() { v.PreverifyMessage(msg) }); n != 0 {
		t.Fatalf("PreverifyMessage of a settled VoteMsg allocates %.0f times, want 0", n)
	}
	batch := v.newSigBatch()
	batch.floor = v.SettledFloor()
	if n := testing.AllocsPerRun(100, func() { v.gather(&batch, msg) }); n != 0 {
		t.Fatalf("gather of a settled VoteMsg allocates %.0f times, want 0", n)
	}
	if lookups(v) != 0 {
		t.Fatal("a settled VoteMsg reached the cache")
	}
}

// TestAllocRegressionOneVoteMsg: verifying one new signature allocates
// nothing — not in preverification of the VoteMsg that brings it (one
// miss, one inline verification, one cache insert), and not in the
// engine's own VerifyVote, uncached or cached.
func TestAllocRegressionOneVoteMsg(t *testing.T) {
	keyring, signers := GenerateCluster(Ed25519(), 4, 4)
	v := NewVerifier(keyring)
	const runs = 50
	var msgs []*types.VoteMsg
	for r := 0; r < 2*(runs+1); r++ { // AllocsPerRun makes a warm-up call
		vote := signers[1].SignVote(types.VoteFast, types.Round(r+1), types.BlockID{byte(r)})
		msgs = append(msgs, &types.VoteMsg{Votes: []types.Vote{vote}})
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() { v.PreverifyMessage(msgs[next]); next++ }); n != 0 {
		t.Fatalf("PreverifyMessage of a one-vote VoteMsg allocates %.0f times, want 0", n)
	}
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
	if n := testing.AllocsPerRun(runs, func() { v.PreverifyMessage(msgs[0]) }); n != 0 {
		t.Fatalf("PreverifyMessage of a cached vote allocates %.0f times, want 0", n)
	}
}

// TestAllocRegressionUncachedAdvance: an Advance whose 3-signer
// notarization is new — three signatures queued in a pooled batch,
// verified and cached — and the Settle that later drops them allocate
// nothing once the pool and the cache's table are warm.
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
		r := advs[next].Notarization.Round
		v.PreverifyMessage(advs[next])
		v.Settle(r - 1)
		next++
	}
	for next < warm {
		step()
	}
	if n := testing.AllocsPerRun(runs, step); n != 0 {
		t.Fatalf("PreverifyMessage of an uncached Advance allocates %.0f times, want 0", n)
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
		v.PreverifyMessage(&types.VoteMsg{Votes: collectVotes(signers, types.VoteNotarize, r, id, 0, 1, 2)})
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
