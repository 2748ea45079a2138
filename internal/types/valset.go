package types

import (
	"bytes"
	"fmt"
	"sort"
)

// ValidatorSetDesc is the serialized form of one epoch's validator set: the
// shape that travels in snapshot responses (so joiners bootstrap membership
// together with state) and in WAL checkpoints (so replay restores the right
// set). internal/membership builds its in-memory ValidatorSet from this and
// produces it back; types only knows the wire shape.
type ValidatorSetDesc struct {
	// Epoch numbers sets from 0 (genesis) upward, +1 per applied change.
	Epoch uint32
	// Activation is the first round the set is in effect: the round after
	// the finalized ConfigChange block that created it (0 for genesis).
	Activation Round
	// Members lists the validator IDs in ascending order; Keys[i] is
	// Members[i]'s public key.
	Members []ReplicaID
	Keys    [][]byte
	// F and P are the fault and partition-tolerance parameters the set's
	// quorums derive from (Params{N: len(Members), F: F, P: P}).
	F, P uint16
}

// MaxValidatorSetMembers bounds one descriptor's member list; IDs are
// uint16 so this is the natural ceiling, and the decoder rejects anything
// larger before allocating.
const MaxValidatorSetMembers = 1 << 16

// MaxSnapshotSets bounds the validator-set history one SnapshotResponse or
// checkpoint record may carry.
const MaxSnapshotSets = 1024

// Params returns the quorum parameters the set derives.
func (d *ValidatorSetDesc) Params() Params {
	return Params{N: len(d.Members), F: int(d.F), P: int(d.P)}
}

// internedDenseIDs bounds the shared dense member table: clusters whose
// member list is 0..n-1 (every genesis set, and most reconfigured ones)
// all point at one backing array instead of each descriptor, snapshot,
// and epoch set holding its own copy.
const internedDenseIDs = 1024

var denseReplicaIDs = func() []ReplicaID {
	t := make([]ReplicaID, internedDenseIDs)
	for i := range t {
		t[i] = ReplicaID(i)
	}
	return t
}()

// InternReplicaIDs returns a shared immutable backing for dense ascending
// ID lists 0..n-1, and the input unchanged otherwise. Retained member
// lists (validator sets, descriptors decoded from snapshots and WAL
// checkpoints) intern through this so every epoch of every replica shares
// one table; the returned slice must never be mutated.
func InternReplicaIDs(ids []ReplicaID) []ReplicaID {
	if len(ids) > internedDenseIDs {
		return ids
	}
	for i, id := range ids {
		if id != ReplicaID(i) {
			return ids
		}
	}
	return denseReplicaIDs[:len(ids):len(ids)]
}

// Validate checks structural well-formedness: ascending unique members,
// one key per member, and quorum parameters that satisfy the Banyan bound.
func (d *ValidatorSetDesc) Validate() error {
	if len(d.Members) != len(d.Keys) {
		return fmt.Errorf("validator set %d: %d members but %d keys", d.Epoch, len(d.Members), len(d.Keys))
	}
	if len(d.Members) > MaxValidatorSetMembers {
		return fmt.Errorf("validator set %d: %d members exceeds limit", d.Epoch, len(d.Members))
	}
	if !sort.SliceIsSorted(d.Members, func(i, j int) bool { return d.Members[i] < d.Members[j] }) {
		return fmt.Errorf("validator set %d: members not ascending", d.Epoch)
	}
	for i := 1; i < len(d.Members); i++ {
		if d.Members[i-1] == d.Members[i] {
			return fmt.Errorf("validator set %d: duplicate member %d", d.Epoch, d.Members[i])
		}
	}
	return d.Params().Validate()
}

// Equal reports whether two descriptors are identical.
func (d *ValidatorSetDesc) Equal(o *ValidatorSetDesc) bool {
	if d == nil || o == nil {
		return d == o
	}
	if d.Epoch != o.Epoch || d.Activation != o.Activation || d.F != o.F || d.P != o.P ||
		len(d.Members) != len(o.Members) {
		return false
	}
	for i := range d.Members {
		if d.Members[i] != o.Members[i] || !bytes.Equal(d.Keys[i], o.Keys[i]) {
			return false
		}
	}
	return true
}
