package beacon

import (
	"testing"
	"testing/quick"

	"banyan/internal/types"
)

// TestPermutationProperties checks, over many rounds, that RankOf and
// ReplicaAt are inverse bijections over [0, n).
func TestPermutationProperties(t *testing.T) {
	for _, n := range []int{1, 2, 4, 19} {
		b, err := NewRoundRobin(n)
		if err != nil {
			t.Fatal(err)
		}
		for round := types.Round(0); round < 50; round++ {
			seenRank := make(map[types.Rank]bool, n)
			for id := types.ReplicaID(0); int(id) < n; id++ {
				rank := b.RankOf(round, id)
				if int(rank) >= n {
					t.Fatalf("n=%d: rank %d out of range", n, rank)
				}
				if seenRank[rank] {
					t.Fatalf("n=%d round=%d: duplicate rank %d", n, round, rank)
				}
				seenRank[rank] = true
				if got := b.ReplicaAt(round, rank); got != id {
					t.Fatalf("n=%d round=%d: ReplicaAt(RankOf(%d)) = %d", n, round, id, got)
				}
			}
		}
	}
}

func TestRoundRobinRotation(t *testing.T) {
	rr, err := NewRoundRobin(4)
	if err != nil {
		t.Fatal(err)
	}
	// Leader of round k is replica k mod n.
	for round := types.Round(0); round < 12; round++ {
		if got := Leader(rr, round); got != types.ReplicaID(round%4) {
			t.Errorf("round %d leader = %d, want %d", round, got, round%4)
		}
	}
	// Every replica leads exactly once per n consecutive rounds.
	counts := make(map[types.ReplicaID]int)
	for round := types.Round(100); round < 104; round++ {
		counts[Leader(rr, round)]++
	}
	for id, c := range counts {
		if c != 1 {
			t.Errorf("replica %d led %d times in one rotation", id, c)
		}
	}
}

func TestInvalidN(t *testing.T) {
	if _, err := NewRoundRobin(0); err == nil {
		t.Error("NewRoundRobin(0) should fail")
	}
	if _, err := NewRoundRobin(-1); err == nil {
		t.Error("NewRoundRobin(-1) should fail")
	}
}

// TestQuickRoundRobinInverse is the property RankOf/ReplicaAt are inverses
// for arbitrary rounds.
func TestQuickRoundRobinInverse(t *testing.T) {
	rr, _ := NewRoundRobin(19)
	f := func(round uint64, id uint8) bool {
		replica := types.ReplicaID(id % 19)
		r := types.Round(round)
		return rr.ReplicaAt(r, rr.RankOf(r, replica)) == replica
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
