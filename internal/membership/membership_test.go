package membership

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"banyan/internal/crypto"
	"banyan/internal/types"
)

func key(id types.ReplicaID) []byte { return []byte(fmt.Sprintf("key-%d", id)) }

func denseSet(t *testing.T, n, f, p int) *ValidatorSet {
	t.Helper()
	members := make([]types.ReplicaID, n)
	keys := make([][]byte, n)
	for i := range members {
		members[i] = types.ReplicaID(i)
		keys[i] = key(types.ReplicaID(i))
	}
	s, err := New(0, 0, members, keys, f, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	mk := func(members []types.ReplicaID) ([]types.ReplicaID, [][]byte) {
		keys := make([][]byte, len(members))
		for i, m := range members {
			keys[i] = key(m)
		}
		return members, keys
	}
	cases := []struct {
		name    string
		members []types.ReplicaID
		mangle  func(m []types.ReplicaID, k [][]byte) ([]types.ReplicaID, [][]byte)
	}{
		{name: "unsorted members", members: []types.ReplicaID{2, 0, 1, 3}},
		{name: "duplicate member", members: []types.ReplicaID{0, 1, 1, 3}},
		{name: "key count mismatch", members: []types.ReplicaID{0, 1, 2, 3},
			mangle: func(m []types.ReplicaID, k [][]byte) ([]types.ReplicaID, [][]byte) { return m, k[:3] }},
		{name: "params below Banyan bound", members: []types.ReplicaID{0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			members, keys := mk(tc.members)
			if tc.mangle != nil {
				members, keys = tc.mangle(members, keys)
			}
			if _, err := New(0, 0, members, keys, 1, 1); err == nil {
				t.Fatalf("New accepted %s", tc.name)
			}
		})
	}
}

func genesisSet(t *testing.T, n int) *ValidatorSet {
	t.Helper()
	keys, _ := crypto.GenerateCluster(crypto.HMAC(), n, 1)
	s, err := Genesis(keys, types.Params{N: n, F: (n - 1) / 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScheduleGenesisDelegates: over the genesis members 0..n−1 the set's
// rotation is the closed form the paper's evaluation runs (section 9.1)
// — the leader of round r is r mod n and replica id's rank is
// (id − r) mod n — for small and for arbitrarily large rounds.
func TestScheduleGenesisDelegates(t *testing.T) {
	for _, n := range []int{1, 4, 19} {
		s := genesisSet(t, n)
		rounds := []types.Round{math.MaxUint64, math.MaxUint64 - 7, 1 << 40}
		for r := types.Round(0); r < types.Round(3*n+2); r++ {
			rounds = append(rounds, r)
		}
		for _, r := range rounds {
			if got, want := s.Leader(r), types.ReplicaID(uint64(r)%uint64(n)); got != want {
				t.Fatalf("n=%d round %d: leader %d, want %d", n, r, got, want)
			}
			for _, id := range s.Members() {
				want := types.Rank((uint64(id) + uint64(n) - uint64(r)%uint64(n)) % uint64(n))
				if rk := s.RankOf(r, id); rk != want {
					t.Fatalf("n=%d round %d: rank of %d is %d, want %d", n, r, id, rk, want)
				}
			}
		}
		if s.RankOf(3, types.ReplicaID(n)) != types.NoRank {
			t.Fatalf("n=%d: non-member got a rank", n)
		}
	}
}

// TestGenesisPermutationProperties checks, over many rounds, that the
// genesis set's RankOf and ReplicaAt are inverse bijections over [0, n).
func TestGenesisPermutationProperties(t *testing.T) {
	for _, n := range []int{1, 2, 4, 19} {
		s := genesisSet(t, n)
		for round := types.Round(0); round < 50; round++ {
			seenRank := make(map[types.Rank]bool, n)
			for id := types.ReplicaID(0); int(id) < n; id++ {
				rank := s.RankOf(round, id)
				if int(rank) >= n {
					t.Fatalf("n=%d: rank %d out of range", n, rank)
				}
				if seenRank[rank] {
					t.Fatalf("n=%d round=%d: duplicate rank %d", n, round, rank)
				}
				seenRank[rank] = true
				if got := s.ReplicaAt(round, rank); got != id {
					t.Fatalf("n=%d round=%d: ReplicaAt(RankOf(%d)) = %d", n, round, id, got)
				}
			}
		}
	}
}

// TestGenesisRoundRobinRotation: the genesis leader of round k is replica
// k mod n, and every replica leads exactly once per n consecutive rounds.
func TestGenesisRoundRobinRotation(t *testing.T) {
	s := genesisSet(t, 4)
	for round := types.Round(0); round < 12; round++ {
		if got := s.Leader(round); got != types.ReplicaID(round%4) {
			t.Errorf("round %d leader = %d, want %d", round, got, round%4)
		}
	}
	counts := make(map[types.ReplicaID]int)
	for round := types.Round(100); round < 104; round++ {
		counts[s.Leader(round)]++
	}
	for id, c := range counts {
		if c != 1 {
			t.Errorf("replica %d led %d times in one rotation", id, c)
		}
	}
}

// TestGenesisQuickRoundRobinInverse is the property that ReplicaAt inverts
// RankOf on the genesis set for arbitrary rounds.
func TestGenesisQuickRoundRobinInverse(t *testing.T) {
	s := genesisSet(t, 19)
	f := func(round uint64, id uint8) bool {
		replica := types.ReplicaID(id % 19)
		r := types.Round(round)
		return s.ReplicaAt(r, s.RankOf(r, replica)) == replica
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestGenesis: the genesis set holds members 0..n−1 under their own
// keyring keys even when the keyring provisions more identities (MaxN),
// accepts the baselines' parameters (p = 0, f = (n−1)/3), and rejects an
// empty set.
func TestGenesis(t *testing.T) {
	t.Run("keyring larger than n", func(t *testing.T) {
		keys, _ := crypto.GenerateCluster(crypto.HMAC(), 7, 1)
		s, err := Genesis(keys, types.Params{N: 4, F: 1, P: 1})
		if err != nil {
			t.Fatal(err)
		}
		if s.Size() != 4 || s.Epoch() != 0 || s.Activation() != 0 {
			t.Fatalf("size %d epoch %d activation %d, want 4/0/0", s.Size(), s.Epoch(), s.Activation())
		}
		for id := types.ReplicaID(0); id < 7; id++ {
			if member := id < 4; s.Contains(id) != member {
				t.Fatalf("Contains(%d) = %v, want %v", id, !member, member)
			}
			if id < 4 && !bytes.Equal(s.Key(id), keys.PublicKey(id)) {
				t.Fatalf("member %d does not hold its keyring key", id)
			}
		}
	})
	t.Run("baseline params", func(t *testing.T) {
		for _, n := range []int{4, 7, 19} {
			params := types.Params{N: n, F: (n - 1) / 3}
			keys, _ := crypto.GenerateCluster(crypto.HMAC(), n, 1)
			s, err := Genesis(keys, params)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if s.Params() != params {
				t.Fatalf("n=%d: params %+v, want %+v", n, s.Params(), params)
			}
		}
	})
	t.Run("zero n", func(t *testing.T) {
		keys, _ := crypto.GenerateCluster(crypto.HMAC(), 4, 1)
		if _, err := Genesis(keys, types.Params{}); err == nil {
			t.Fatal("Genesis accepted n = 0")
		}
	})
	t.Run("keyring smaller than n", func(t *testing.T) {
		keys, _ := crypto.GenerateCluster(crypto.HMAC(), 3, 1)
		if _, err := Genesis(keys, types.Params{N: 4, F: 1}); err == nil {
			t.Fatal("Genesis accepted members without keys")
		}
	})
}

// TestScheduleSparseRotation: later epochs rotate round-robin over the
// ordered member list, every member leading once per size rounds, and
// ReplicaAt must invert RankOf.
func TestScheduleSparseRotation(t *testing.T) {
	members := []types.ReplicaID{0, 2, 3, 5, 6}
	keys := make([][]byte, len(members))
	for i, m := range members {
		keys[i] = key(m)
	}
	s, err := New(3, 100, members, keys, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	size := len(members)
	for r := types.Round(100); r < types.Round(100+3*size); r++ {
		seen := make(map[types.Rank]types.ReplicaID)
		for _, id := range members {
			rk := s.RankOf(r, id)
			if rk == types.NoRank {
				t.Fatalf("member %d has no rank at round %d", id, r)
			}
			if prev, dup := seen[rk]; dup {
				t.Fatalf("round %d: members %d and %d share rank %d", r, prev, id, rk)
			}
			seen[rk] = id
			if got := s.ReplicaAt(r, rk); got != id {
				t.Fatalf("round %d: ReplicaAt(%d) = %d, want %d", r, rk, got, id)
			}
		}
	}
	// Leadership is fair: size consecutive rounds cycle every member.
	led := make(map[types.ReplicaID]bool)
	for r := types.Round(100); r < types.Round(100+size); r++ {
		led[s.Leader(r)] = true
	}
	if len(led) != size {
		t.Fatalf("only %d of %d members led in one rotation", len(led), size)
	}
	if s.RankOf(101, types.ReplicaID(1)) != types.NoRank {
		t.Fatal("non-member 1 got a rank in a sparse set")
	}
}

func TestApplyAddRemove(t *testing.T) {
	s := denseSet(t, 4, 1, 1)

	added, err := s.Apply(&types.ConfigChange{Op: types.ConfigAdd, Replica: 4, PubKey: key(4)}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if added.Epoch() != 1 || added.Activation() != 50 || added.Size() != 5 || !added.Contains(4) {
		t.Fatalf("add produced epoch %d activation %d members %v", added.Epoch(), added.Activation(), added.Members())
	}
	if got := added.Params(); got.N != 5 || got.F != 1 || got.P != 1 {
		t.Fatalf("add carried params %+v", got)
	}
	if string(added.Key(4)) != string(key(4)) {
		t.Fatal("added member's key not adopted")
	}

	removed, err := added.Apply(&types.ConfigChange{Op: types.ConfigRemove, Replica: 2}, 90)
	if err != nil {
		t.Fatal(err)
	}
	if removed.Epoch() != 2 || removed.Size() != 4 || removed.Contains(2) {
		t.Fatalf("remove produced epoch %d members %v", removed.Epoch(), removed.Members())
	}

	// Inapplicable changes are errors (hosts treat them as no-ops).
	bad := []struct {
		name string
		c    types.ConfigChange
		at   types.Round
	}{
		{"add existing member", types.ConfigChange{Op: types.ConfigAdd, Replica: 0, PubKey: key(0)}, 50},
		{"add without key", types.ConfigChange{Op: types.ConfigAdd, Replica: 7}, 50},
		{"remove non-member", types.ConfigChange{Op: types.ConfigRemove, Replica: 9}, 50},
		{"activation not after current", types.ConfigChange{Op: types.ConfigAdd, Replica: 4, PubKey: key(4)}, 0},
		{"shrink below bound", types.ConfigChange{Op: types.ConfigRemove, Replica: 3}, 50},
	}
	three := denseSet(t, 4, 1, 1)
	for _, tc := range bad {
		s := s
		if tc.name == "shrink below bound" {
			s = three // removing from n=4 leaves n=3, violating n > 2(f+p)
		}
		if _, err := s.Apply(&tc.c, tc.at); err == nil {
			t.Errorf("Apply accepted %s", tc.name)
		}
	}
}

func TestDiff(t *testing.T) {
	s := denseSet(t, 4, 1, 1)
	added, err := s.Apply(&types.ConfigChange{Op: types.ConfigAdd, Replica: 4, PubKey: key(4)}, 50)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.Diff(added)
	if err != nil {
		t.Fatal(err)
	}
	if c.Op != types.ConfigAdd || c.Replica != 4 || string(c.PubKey) != string(key(4)) {
		t.Fatalf("Diff recovered %v", c)
	}
	c, err = added.Diff(s)
	if err != nil {
		t.Fatal(err)
	}
	if c.Op != types.ConfigRemove || c.Replica != 4 {
		t.Fatalf("reverse Diff recovered %v", c)
	}
	if _, err := s.Diff(s); err == nil {
		t.Fatal("Diff accepted identical sets")
	}
	twoSteps, err := added.Apply(&types.ConfigChange{Op: types.ConfigAdd, Replica: 5, PubKey: key(5)}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Diff(twoSteps); err == nil {
		t.Fatal("Diff accepted a two-step transition")
	}
}

func TestDescRoundTrip(t *testing.T) {
	s := denseSet(t, 4, 1, 1)
	back, err := FromDesc(s.Desc())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Desc().Equal(s.Desc()) {
		t.Fatal("Desc round-trip changed the set")
	}
	if back.Leader(7) != s.Leader(7) {
		t.Fatal("round-trip changed the leader schedule")
	}
}

func TestHistoryLookup(t *testing.T) {
	hist, err := NewHistory(denseSet(t, 4, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := hist.Apply(&types.ConfigChange{Op: types.ConfigAdd, Replica: 4, PubKey: key(4)}, 49); !ok {
		t.Fatal("add did not apply")
	}
	if _, ok := hist.Apply(&types.ConfigChange{Op: types.ConfigRemove, Replica: 4}, 99); !ok {
		t.Fatal("remove did not apply")
	}
	if hist.Len() != 3 {
		t.Fatalf("history holds %d epochs, want 3", hist.Len())
	}
	for _, tc := range []struct {
		round types.Round
		epoch uint32
	}{{0, 0}, {49, 0}, {50, 1}, {99, 1}, {100, 2}, {1 << 30, 2}} {
		if got := hist.SetForRound(tc.round).Epoch(); got != tc.epoch {
			t.Errorf("round %d resolved to epoch %d, want %d", tc.round, got, tc.epoch)
		}
		if got := hist.EpochForRound(tc.round); got != tc.epoch {
			t.Errorf("EpochForRound(%d) = %d, want %d", tc.round, got, tc.epoch)
		}
	}
	if hist.SetForEpoch(3) != nil {
		t.Fatal("SetForEpoch returned a set beyond the history")
	}
	if hist.Current().Epoch() != 2 || hist.Genesis().Epoch() != 0 {
		t.Fatal("Current/Genesis misrouted")
	}
	// Re-applying a change the history already absorbed is a no-op.
	if _, ok := hist.Apply(&types.ConfigChange{Op: types.ConfigRemove, Replica: 4}, 120); ok {
		t.Fatal("removing an already-removed member applied")
	}
	if hist.Len() != 3 {
		t.Fatalf("no-op change grew the history to %d", hist.Len())
	}
}

func TestVerifyChainAndRestore(t *testing.T) {
	genesis := denseSet(t, 4, 1, 1)
	hist, err := NewHistory(genesis)
	if err != nil {
		t.Fatal(err)
	}
	hist.Apply(&types.ConfigChange{Op: types.ConfigAdd, Replica: 4, PubKey: key(4)}, 49)
	hist.Apply(&types.ConfigChange{Op: types.ConfigRemove, Replica: 1}, 99)
	descs := hist.Descs()

	if _, err := VerifyChain(descs); err != nil {
		t.Fatalf("legal chain rejected: %v", err)
	}

	// Structural corruption must be rejected.
	corrupt := func(name string, f func(d []*types.ValidatorSetDesc)) {
		cp := make([]*types.ValidatorSetDesc, len(descs))
		for i, d := range descs {
			c := *d
			c.Members = append([]types.ReplicaID(nil), d.Members...)
			c.Keys = append([][]byte(nil), d.Keys...)
			cp[i] = &c
		}
		f(cp)
		if _, err := VerifyChain(cp); err == nil {
			t.Errorf("VerifyChain accepted %s", name)
		}
	}
	corrupt("non-dense epochs", func(d []*types.ValidatorSetDesc) { d[1].Epoch = 5 })
	corrupt("non-increasing activation", func(d []*types.ValidatorSetDesc) { d[2].Activation = d[1].Activation })
	corrupt("two-step transition", func(d []*types.ValidatorSetDesc) {
		d[1].Members = append(d[1].Members, 9)
		d[1].Keys = append(d[1].Keys, key(9))
	})
	corrupt("rekeyed survivor", func(d []*types.ValidatorSetDesc) { d[1].Keys[0] = []byte("evil") })
	corrupt("genesis not at round 0", func(d []*types.ValidatorSetDesc) { d[0].Activation = 1 })

	// A fresh replica configured with the same genesis restores the chain.
	fresh, err := NewHistory(denseSet(t, 4, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.VerifyExtends(descs); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(descs); err != nil {
		t.Fatal(err)
	}
	if fresh.Len() != 3 || fresh.Current().Epoch() != 2 {
		t.Fatalf("restore produced %d epochs, current %d", fresh.Len(), fresh.Current().Epoch())
	}
	if fresh.Genesis().Leader(7) != genesis.Leader(7) {
		t.Fatal("restore changed the genesis leader schedule")
	}

	// A history that already knows an epoch rejects a rewrite of it, and a
	// shorter chain than the local one cannot "extend" it.
	if err := hist.VerifyExtends(descs[:2]); err == nil {
		t.Fatal("VerifyExtends accepted a chain behind the local history")
	}
	rewritten := make([]*types.ValidatorSetDesc, len(descs))
	copy(rewritten, descs)
	alt := *descs[1]
	alt.Activation++
	rewritten[1] = &alt
	if err := hist.VerifyExtends(rewritten); err == nil {
		t.Fatal("VerifyExtends accepted a rewritten epoch")
	}
	other, err := NewHistory(denseSet(t, 5, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(descs); err == nil {
		t.Fatal("Restore accepted a chain with a different genesis")
	}
}

func TestReconfigurator(t *testing.T) {
	var r Reconfigurator
	if r.Pending() != nil {
		t.Fatal("fresh reconfigurator has a pending change")
	}
	add := types.ConfigChange{Op: types.ConfigAdd, Replica: 4, PubKey: key(4)}
	r.Propose(add)
	if p := r.Pending(); p == nil || !p.Equal(&add) {
		t.Fatalf("Pending() = %v after Propose", p)
	}
	// A newer proposal replaces an unproposed older one.
	rm := types.ConfigChange{Op: types.ConfigRemove, Replica: 2}
	r.Propose(rm)
	if p := r.Pending(); !p.Equal(&rm) {
		t.Fatalf("Pending() = %v, want the newer change", p)
	}
	// Observing an unrelated finalized change leaves the slot alone;
	// observing the equal one clears it.
	r.Observe(&add)
	if r.Pending() == nil {
		t.Fatal("unrelated observation cleared the slot")
	}
	r.Observe(&rm)
	if r.Pending() != nil {
		t.Fatal("observation of the finalized change did not clear the slot")
	}
	r.Observe(nil) // must not panic with an empty slot
}
