// Package beacon supplies per-round leader permutations.
//
// The ICC/Banyan model assumes shared randomness: each round a random
// permutation of the replicas assigns every replica a rank, and the rank-0
// replica leads the round (paper section 4, "Block Proposal"). For its
// evaluation the paper replaces the random beacon with a round-robin
// rotation "to increase predictability and transparency" (section 9.1);
// that rotation is the one schedule here. The baseline engines take it
// through the Beacon interface; the Banyan engine's schedule is its
// validator set (internal/membership), which rotates the same way.
package beacon

import (
	"fmt"

	"banyan/internal/types"
)

// Beacon deterministically maps rounds to leader permutations. All honest
// replicas of a deployment must hold beacons that agree on every round.
type Beacon interface {
	// N is the number of replicas the beacon permutes.
	N() int
	// RankOf returns replica id's rank in the given round.
	RankOf(round types.Round, id types.ReplicaID) types.Rank
	// ReplicaAt returns the replica holding the given rank in the round.
	ReplicaAt(round types.Round, rank types.Rank) types.ReplicaID
}

// Leader returns the round's rank-0 replica.
func Leader(b Beacon, round types.Round) types.ReplicaID {
	return b.ReplicaAt(round, 0)
}

// RoundRobin rotates leadership one replica per round: the leader of round
// k is replica k mod n, and ranks follow in ID order from the leader. This
// is the rotation used in the paper's evaluation.
type RoundRobin struct {
	n int
}

// NewRoundRobin builds a round-robin beacon over n replicas.
func NewRoundRobin(n int) (*RoundRobin, error) {
	if n <= 0 {
		return nil, fmt.Errorf("beacon: n = %d must be positive", n)
	}
	return &RoundRobin{n: n}, nil
}

// N implements Beacon.
func (r *RoundRobin) N() int { return r.n }

// RankOf implements Beacon: rank = (id - round) mod n.
func (r *RoundRobin) RankOf(round types.Round, id types.ReplicaID) types.Rank {
	n := uint64(r.n)
	shift := uint64(round) % n
	return types.Rank((uint64(id) + n - shift) % n)
}

// ReplicaAt implements Beacon: replica = (round + rank) mod n.
func (r *RoundRobin) ReplicaAt(round types.Round, rank types.Rank) types.ReplicaID {
	n := uint64(r.n)
	return types.ReplicaID((uint64(round) + uint64(rank)) % n)
}

// Compile-time interface check.
var _ Beacon = (*RoundRobin)(nil)
