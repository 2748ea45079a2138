// Package membership makes the validator set a first-class, epoch-scoped
// object. PR 6 gave fresh replicas a way *into* a running cluster; this
// package makes the set itself changeable: a finalized ConfigChange block
// at round R produces the next epoch's set, active from round R+1 (the
// activation rule). Everything that used to assume a fixed n — quorum
// sizes, leader rotation, certificate verification, snapshot trust —
// consults the set in effect at the relevant round instead.
//
// The set history is derived exclusively from finalized blocks, so every
// honest replica converges on the same sequence of sets; a replica that
// lags simply applies changes later, and certificate verification is
// pinned to the epoch of the certified round, so old certs keep verifying
// after the set moves on.
package membership

import (
	"bytes"
	"fmt"
	"sort"

	"banyan/internal/crypto"
	"banyan/internal/types"
)

// ValidatorSet is one epoch's validator set: an ordered member list with
// public keys, the quorum parameters derived from it, and a deterministic
// leader schedule over the members. It is immutable once built; Apply
// produces the next epoch's set.
//
// Leader schedule: every epoch, genesis included, rotates round-robin
// over the ordered member list — member members[r mod size] leads round r
// — which stays deterministic no matter which IDs joined or left. Over the
// dense genesis IDs 0..n-1 (Genesis) the leader of round r is r mod n:
// the round-robin rotation the paper's evaluation substitutes for the
// random beacon (section 9.1), and the one schedule Banyan and the
// baselines share.
type ValidatorSet struct {
	epoch      uint32
	activation types.Round
	members    []types.ReplicaID // ascending; interned — shared, never mutated
	keys       [][]byte          // keys[i] is members[i]'s public key
	index      map[types.ReplicaID]int
	mask       types.VoterSet // the members as a bitset; shared, never mutated
	params     types.Params
}

// New builds a validator set. members must be ascending and unique with
// one key each, and the derived Params{N: len(members), F: f, P: p} must
// satisfy the Banyan bound.
func New(epoch uint32, activation types.Round, members []types.ReplicaID, keys [][]byte, f, p int) (*ValidatorSet, error) {
	d := &types.ValidatorSetDesc{
		Epoch:      epoch,
		Activation: activation,
		Members:    members,
		Keys:       keys,
		F:          uint16(f),
		P:          uint16(p),
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("membership: %w", err)
	}
	s := &ValidatorSet{
		epoch:      epoch,
		activation: activation,
		members:    types.InternReplicaIDs(append([]types.ReplicaID(nil), members...)),
		keys:       append([][]byte(nil), keys...),
		index:      make(map[types.ReplicaID]int, len(members)),
		params:     d.Params(),
	}
	s.mask = types.NewVoterSet(s.Span())
	for i, m := range s.members {
		s.index[m] = i
		s.mask.Add(m)
	}
	return s, nil
}

// Genesis builds the epoch-0 set: members 0..n−1 under their keyring
// keys, with the given quorum parameters. The keyring may hold more
// identities than n (those join later by reconfiguration).
func Genesis(keys *crypto.Keyring, params types.Params) (*ValidatorSet, error) {
	if keys.N() < params.N {
		return nil, fmt.Errorf("membership: keyring holds %d keys, genesis set needs %d", keys.N(), params.N)
	}
	members := make([]types.ReplicaID, max(params.N, 0))
	pubs := make([][]byte, len(members))
	for i := range members {
		members[i] = types.ReplicaID(i)
		pubs[i] = keys.PublicKey(members[i])
	}
	return New(0, 0, members, pubs, params.F, params.P)
}

// FromDesc rebuilds a set from its wire descriptor.
func FromDesc(d *types.ValidatorSetDesc) (*ValidatorSet, error) {
	return New(d.Epoch, d.Activation, d.Members, d.Keys, int(d.F), int(d.P))
}

// Epoch returns the set's epoch number (0 = genesis).
func (s *ValidatorSet) Epoch() uint32 { return s.epoch }

// Activation returns the first round the set is in effect.
func (s *ValidatorSet) Activation() types.Round { return s.activation }

// Params returns the quorum parameters the set derives.
func (s *ValidatorSet) Params() types.Params { return s.params }

// Size returns the number of members.
func (s *ValidatorSet) Size() int { return len(s.members) }

// Members returns the ascending member list. The slice is interned —
// shared across every caller and never mutated — so member-filtered
// counting loops borrow it allocation-free.
func (s *ValidatorSet) Members() []types.ReplicaID { return s.members }

// Span returns one past the highest member ID: what an array indexed by
// member ID must hold.
func (s *ValidatorSet) Span() int { return int(s.members[len(s.members)-1]) + 1 }

// Mask returns the members as a bitset, for masking vote ledgers. Shared
// like Members: callers must not mutate it.
func (s *ValidatorSet) Mask() types.VoterSet { return s.mask }

// Contains reports whether id is a member.
func (s *ValidatorSet) Contains(id types.ReplicaID) bool { return s.mask.Has(id) }

// Key returns a member's public key, or nil for non-members.
func (s *ValidatorSet) Key(id types.ReplicaID) []byte {
	if i, ok := s.index[id]; ok {
		return s.keys[i]
	}
	return nil
}

// RankOf returns id's rank in the round: its distance from the round's
// leader in member order. Non-members get types.NoRank.
func (s *ValidatorSet) RankOf(round types.Round, id types.ReplicaID) types.Rank {
	i, ok := s.index[id]
	if !ok {
		return types.NoRank
	}
	size := uint64(len(s.members))
	shift := uint64(round) % size
	return types.Rank((uint64(i) + size - shift) % size)
}

// ReplicaAt returns the member holding rank in the round. The round is
// reduced before the rank is added, so rounds near 2^64 do not wrap.
func (s *ValidatorSet) ReplicaAt(round types.Round, rank types.Rank) types.ReplicaID {
	size := uint64(len(s.members))
	return s.members[(uint64(round)%size+uint64(rank))%size]
}

// Leader returns the round's rank-0 member.
func (s *ValidatorSet) Leader(round types.Round) types.ReplicaID {
	return s.ReplicaAt(round, 0)
}

// Desc returns the set's wire descriptor. The returned value shares the
// interned member and key slices; treat it as read-only.
func (s *ValidatorSet) Desc() *types.ValidatorSetDesc {
	return &types.ValidatorSetDesc{
		Epoch:      s.epoch,
		Activation: s.activation,
		Members:    s.members,
		Keys:       s.keys,
		F:          uint16(s.params.F),
		P:          uint16(s.params.P),
	}
}

// Apply produces the next epoch's set from a finalized change, active from
// activation (the change block's round + 1). F and P carry over unchanged;
// a change whose resulting parameters would break the Banyan bound (or
// that adds an existing member, removes a non-member, adds without a key,
// or re-adds an ID under a different key than the registry knows) is an
// error — callers treat that as a deterministic no-op, since every honest
// replica evaluates the same change against the same set.
func (s *ValidatorSet) Apply(c *types.ConfigChange, activation types.Round) (*ValidatorSet, error) {
	if c == nil || !c.Op.Valid() {
		return nil, fmt.Errorf("membership: invalid change %v", c)
	}
	if activation <= s.activation {
		return nil, fmt.Errorf("membership: activation %d not after epoch %d activation %d", activation, s.epoch, s.activation)
	}
	var members []types.ReplicaID
	var keys [][]byte
	switch c.Op {
	case types.ConfigAdd:
		if s.Contains(c.Replica) {
			return nil, fmt.Errorf("membership: add: %d already a member of epoch %d", c.Replica, s.epoch)
		}
		if len(c.PubKey) == 0 {
			return nil, fmt.Errorf("membership: add: %d carries no public key", c.Replica)
		}
		at := sort.Search(len(s.members), func(i int) bool { return s.members[i] > c.Replica })
		members = make([]types.ReplicaID, 0, len(s.members)+1)
		members = append(members, s.members[:at]...)
		members = append(members, c.Replica)
		members = append(members, s.members[at:]...)
		keys = make([][]byte, 0, len(s.keys)+1)
		keys = append(keys, s.keys[:at]...)
		keys = append(keys, c.PubKey)
		keys = append(keys, s.keys[at:]...)
	case types.ConfigRemove:
		i, ok := s.index[c.Replica]
		if !ok {
			return nil, fmt.Errorf("membership: remove: %d not a member of epoch %d", c.Replica, s.epoch)
		}
		members = make([]types.ReplicaID, 0, len(s.members)-1)
		members = append(members, s.members[:i]...)
		members = append(members, s.members[i+1:]...)
		keys = make([][]byte, 0, len(s.keys)-1)
		keys = append(keys, s.keys[:i]...)
		keys = append(keys, s.keys[i+1:]...)
	}
	return New(s.epoch+1, activation, members, keys, s.params.F, s.params.P)
}

// Diff returns the single change that turns s into next, or an error when
// the sets do not differ by exactly one add or remove with F/P unchanged.
// Chain verification uses it to check that a claimed history only moves in
// legal steps.
func (s *ValidatorSet) Diff(next *ValidatorSet) (*types.ConfigChange, error) {
	if next.params.F != s.params.F || next.params.P != s.params.P {
		return nil, fmt.Errorf("membership: epoch %d -> %d changes f/p", s.epoch, next.epoch)
	}
	switch len(next.members) - len(s.members) {
	case 1:
		for i, m := range next.members {
			if _, ok := s.index[m]; !ok {
				return &types.ConfigChange{Op: types.ConfigAdd, Replica: m, PubKey: next.keys[i]}, s.sameExcept(next, m)
			}
		}
	case -1:
		for _, m := range s.members {
			if !next.Contains(m) {
				return &types.ConfigChange{Op: types.ConfigRemove, Replica: m}, s.sameExcept(next, m)
			}
		}
	}
	return nil, fmt.Errorf("membership: epoch %d -> %d is not a single add/remove", s.epoch, next.epoch)
}

// sameExcept checks every member other than skip appears in both sets
// under the same key.
func (s *ValidatorSet) sameExcept(next *ValidatorSet, skip types.ReplicaID) error {
	for i, m := range s.members {
		if m == skip {
			continue
		}
		j, ok := next.index[m]
		if !ok {
			return fmt.Errorf("membership: epoch %d -> %d drops member %d", s.epoch, next.epoch, m)
		}
		if !bytes.Equal(s.keys[i], next.keys[j]) {
			return fmt.Errorf("membership: epoch %d -> %d changes member %d's key", s.epoch, next.epoch, m)
		}
	}
	for _, m := range next.members {
		if m == skip {
			continue
		}
		if !s.Contains(m) {
			return fmt.Errorf("membership: epoch %d -> %d gains extra member %d", s.epoch, next.epoch, m)
		}
	}
	return nil
}
