package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"banyan/internal/crypto"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// TestAllocRegressionVoteLedger: filing the k-th fast vote of a known
// block and re-evaluating Definition 7.6 over the round allocates nothing —
// a bit, a slot of the signature slice, ORs and popcounts. Once the round
// is reset for reuse, neither does the first fast vote for its first
// block: the record, its map slot and its arrays are the old round's.
func TestAllocRegressionVoteLedger(t *testing.T) {
	const n = 19
	params := types.Params{N: n, F: 6, P: 1}
	rs, set := newRoundState(), genesisSet(t, params)
	lead := types.NewBlock(1, 0, 0, types.Genesis().ID(), types.BytesPayload([]byte{1}))
	twin := types.NewBlock(1, 0, 0, types.Genesis().ID(), types.BytesPayload([]byte{2}))
	late := types.NewBlock(1, 1, 1, types.Genesis().ID(), types.BytesPayload([]byte{3}))
	for _, b := range []*types.Block{lead, twin, late} {
		rs.addBlock(b)
		rs.recordVote(types.VoteFast, b.ID(), 0, []byte{0}, set) // sizes the block's set
	}
	sig, voter := []byte{1}, types.ReplicaID(1)
	if got := testing.AllocsPerRun(n-2, func() {
		rs.allUnlocked = false // keep the evaluation running past the threshold
		rs.recordVote(types.VoteFast, lead.ID(), voter, sig, set)
		rs.recordVote(types.VoteFast, late.ID(), voter, sig, set)
		rs.recomputeUnlock(params.UnlockThreshold())
		voter++
	}); got != 0 {
		t.Fatalf("recordVote + recomputeUnlock allocate %.0f times per vote, want 0", got)
	}
	if int(voter) != n || rs.set(types.VoteFast, lead.ID()).count() != n || !rs.peek(twin.ID()).unlocked {
		t.Fatalf("%d voters filed, %d votes held, twin unlocked %v",
			voter, rs.set(types.VoteFast, lead.ID()).count(), rs.peek(twin.ID()).unlocked)
	}
	next := types.NewBlock(2, 0, 0, lead.ID(), types.BytesPayload([]byte{4}))
	if got := testing.AllocsPerRun(10, func() {
		rs.reset()
		rs.recordVote(types.VoteFast, next.ID(), 0, sig, set)
	}); got != 0 {
		t.Fatalf("the first fast vote of a reused round allocates %.0f times, want 0", got)
	}
	if rs.set(types.VoteFast, next.ID()).count() != 1 || rs.set(types.VoteFast, lead.ID()) != nil {
		t.Fatal("the reused round does not hold exactly the new vote")
	}
}

// TestAllocRegressionCertificate: a fast-path round's notarization
// certificate and its fast-finalization certificate are capped prefixes
// of the block's fast-vote log, so forming them copies no signature: one
// allocation each, the certificate, plus the notarization's Fast marker.
func TestAllocRegressionCertificate(t *testing.T) {
	params := types.Params{N: 19, F: 6, P: 1}
	rs, set := newRoundState(), genesisSet(t, params)
	b := types.NewBlock(1, 0, 0, types.Genesis().ID(), types.BytesPayload([]byte{1}))
	rs.addBlock(b)
	id, voter := b.ID(), types.ReplicaID(0)
	fastVotes := func(upTo int) {
		for ; int(voter) < upTo; voter++ {
			rs.recordVote(types.VoteFast, id, voter, []byte{byte(voter)}, set)
		}
	}
	var notar, fast *types.Certificate
	fastVotes(params.NotarizationQuorum())
	if got := testing.AllocsPerRun(10, func() { notar = rs.certificate(types.CertNotarization, 1, id) }); got != 2 {
		t.Errorf("a notarization of fast votes allocates %.0f times, want 2", got)
	}
	fastVotes(params.FastQuorum())
	if got := testing.AllocsPerRun(10, func() { fast = rs.certificate(types.CertFastFinalization, 1, id) }); got != 1 {
		t.Errorf("a fast-finalization certificate allocates %.0f times, want 1", got)
	}
	log := rs.set(types.VoteFast, id)
	for _, c := range []*types.Certificate{notar, fast} {
		if &c.Signers[0] != &log.ids[0] || &c.Sigs[0] != &log.sigs[0] || cap(c.Sigs) != len(c.Sigs) || cap(c.Signers) != len(c.Signers) {
			t.Errorf("%v is not a capped prefix of the fast-vote log", c)
		}
	}
	if err := notar.CheckShape(params.N, params.NotarizationQuorum()); err != nil || !unlocksItself(notar, set) {
		t.Errorf("notarization %v: shape %v, unlocks itself %v", notar, err, unlocksItself(notar, set))
	}
}

// meteredEngine counts the heap allocations one replica's engine makes
// inside its entry points, by the round it was in on entry.
type meteredEngine struct {
	*Engine
	ms      runtime.MemStats
	byRound map[types.Round]uint64
}

func (m *meteredEngine) meter(f func() []protocol.Action) []protocol.Action {
	r := m.Round()
	runtime.ReadMemStats(&m.ms)
	before := m.ms.Mallocs
	acts := f()
	runtime.ReadMemStats(&m.ms)
	m.byRound[r] += m.ms.Mallocs - before
	return acts
}

func (m *meteredEngine) HandleMessage(from types.ReplicaID, msg types.Message, now time.Time) []protocol.Action {
	return m.meter(func() []protocol.Action { return m.Engine.HandleMessage(from, msg, now) })
}

func (m *meteredEngine) HandleTimer(id protocol.TimerID, now time.Time) []protocol.Action {
	return m.meter(func() []protocol.Action { return m.Engine.HandleTimer(id, now) })
}

// TestAllocRegressionFastPathRound: one fast-path round — a proposal, the
// header relays, votes, advances and certificates in, this replica's own
// relay, vote, certificates and Advance out, under ed25519 — costs a
// non-leader at most budget allocations. At n=19 a typical round cost
// about 630 with map ledgers and 65 with six BlockID-keyed maps per
// round; one record per block makes it 49 (n=4: 55 → 42). At n=4 a round
// is left through its fast certificate, with no notarization certificate,
// unlock proof or Advance of its own and none to take in: 42 → 30, and
// 54 → 42 in the round before the replica leads (46 at most, 48 under the
// race detector). At n=7 and n=19 a round is left on a notarization whose
// fast-marked signers unlock it by themselves, so no unlock proof is built
// or taken in: a typical n=19 round 49 → 44, the most 61 → 56 (n=7: 64 →
// 59; 58 and 61 under the race detector). From PruneKeep rounds past the
// start, finalization retires a round per round entered and the next
// round reuses its ledger — map, records and vote-set arrays — so a
// reused round has its own budget: typical 30 → 23 at n=4 (the most 29,
// 31 under the race detector), and 44 → 35 at n=7 and n=19 (the most 41,
// 43 under the race detector). With the engine's action list reused from
// call to call and the finalized chain kept in the tree's log instead of
// its growing maps, a reused round is typical 23 → 18 at n=4 (the most
// 24, 26 under the race detector) and 35 → 28 at n=7 and n=19 (the most
// 34, 36 under the race detector). With each certificate a prefix of its
// vote log rather than a copy, a typical reused round is 18 → 17 at n=4
// and 28 → 25 at n=7 and n=19, and a fresh one at most 41 → 40 at n=4
// and 49 → 47 at n=7 and n=19 (42 and 49 under the race detector). The
// most a reused round costs is 24 → 25 at n=4 (27 under the race
// detector) and 34 → 33 at n=7 and n=19 (35), and it moves from a round
// the replica leads to the round before it: the call that enters the next
// round files its first vote there, and that round's log, lent to a
// certificate before the round was retired, is made anew.
func TestAllocRegressionFastPathRound(t *testing.T) {
	for _, tc := range []struct {
		params         types.Params
		self           types.ReplicaID
		budget, reused uint64
	}{
		{types.Params{N: 4, F: 1, P: 1}, 2, 53, 31},
		{types.Params{N: 7, F: 2, P: 1}, 3, 60, 36},
		{types.Params{N: 19, F: 6, P: 1}, 7, 58, 37},
	} {
		t.Run(fmt.Sprintf("n%d", tc.params.N), func(t *testing.T) {
			fastPathRoundAllocs(t, tc.params, tc.self, tc.budget, tc.reused)
		})
	}
}

func fastPathRoundAllocs(t *testing.T, params types.Params, self types.ReplicaID, budget, reused uint64) {
	// Rounds below fin − PruneKeep are retired, and their states reused,
	// from about round PruneKeep+2 on; reuse is the rule from reuseFrom.
	const (
		rounds    = defaultPruneKeep + 24
		reuseFrom = defaultPruneKeep + 4
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The meter reads the process's Mallocs, so it also counts what other
	// goroutines allocate inside a metered call. After each collection the
	// runtime wakes the unique package's map cleanup (linked here through
	// net/netip), which allocates as it walks its maps; on the one P it
	// runs inside whatever call it preempts, which read 61 of 56 at n=19
	// under -run 'Dissem|Late|Repeated|Leader|Batch|Deliver|Alloc'. The
	// engine keeps no pool or weak pointer — its spare list of retired
	// rounds is its own and does not depend on the collector — so its own
	// count does not move with collections: the rounds run with the
	// collector off, after a yield has let a cleanup that is already awake
	// finish.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.Gosched()
	n := params.N
	keyring, signers := crypto.GenerateCluster(crypto.Ed25519(), n, 3)
	engines := make([]protocol.Engine, n)
	metered := &meteredEngine{byRound: make(map[types.Round]uint64)}
	for i := range engines {
		eng, err := New(Config{
			Params: params, Self: types.ReplicaID(i), Keyring: keyring, Signer: signers[i],
			Delta: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if engines[i] = eng; eng.ID() == self {
			metered.Engine = eng
			engines[i] = metered
		}
	}
	net, err := simnet.New(engines, simnet.Options{Topology: wan.Uniform(n, 10*time.Millisecond), JitterFrac: 0.05, Seed: 1}, simnet.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for metered.Round() <= rounds && net.Elapsed() < time.Minute {
		net.Run(net.Elapsed() + 10*time.Millisecond)
	}
	if got := metered.Metrics()["final_fast"]; got < rounds-2 {
		t.Fatalf("%d of %d rounds finalized on the fast path", got, rounds)
	}
	if len(metered.spare) > 1 || len(metered.rounds) > int(defaultPruneKeep)+3 {
		t.Errorf("%d rounds held and %d spare in steady state", len(metered.rounds), len(metered.spare))
	}
	set := metered.History().Genesis()
	for r := types.Round(3); r < rounds; r++ { // the first rounds grow the engine's maps
		limit := budget
		if r >= reuseFrom {
			limit = reused
		}
		switch allocs := metered.byRound[r]; {
		case set.Leader(r) == self:
			t.Logf("round %d (leader): %d allocations", r, allocs)
		case allocs > limit:
			t.Errorf("round %d: %d allocations at a non-leader, budget %d", r, allocs, limit)
		}
	}
	t.Logf("allocations per round: %v", metered.byRound)
}
