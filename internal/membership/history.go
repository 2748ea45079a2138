package membership

import (
	"fmt"
	"sync"

	"banyan/internal/types"
)

// History is a replica's append-only sequence of validator sets, epoch 0
// upward. Sets are appended only when a ConfigChange block finalizes (or
// when a trusted snapshot/checkpoint restores a longer prefix), so every
// honest replica's history is a prefix of every other's — the engine
// queries it for the set in effect at any round it still handles
// messages for.
//
// All methods are safe for concurrent use: the engine appends on its
// event loop while hosts (cluster, harness, metrics) read.
type History struct {
	mu   sync.RWMutex
	sets []*ValidatorSet // ascending epoch == index; ascending activation
}

// NewHistory starts a history at its genesis set (epoch 0, activation 0).
func NewHistory(genesis *ValidatorSet) (*History, error) {
	if genesis.Epoch() != 0 || genesis.Activation() != 0 {
		return nil, fmt.Errorf("membership: genesis set must be epoch 0 active from round 0, got epoch %d round %d",
			genesis.Epoch(), genesis.Activation())
	}
	return &History{sets: []*ValidatorSet{genesis}}, nil
}

// Genesis returns the epoch-0 set.
func (h *History) Genesis() *ValidatorSet {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.sets[0]
}

// Current returns the newest set.
func (h *History) Current() *ValidatorSet {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.sets[len(h.sets)-1]
}

// SetForRound returns the set in effect at round r: the one with the
// greatest activation <= r.
func (h *History) SetForRound(r types.Round) *ValidatorSet {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for i := len(h.sets) - 1; i > 0; i-- {
		if h.sets[i].Activation() <= r {
			return h.sets[i]
		}
	}
	return h.sets[0]
}

// Apply derives the next set from a change finalized at round changeRound
// (activation changeRound+1) and appends it. An inapplicable change — one
// Apply on the current set rejects, or one finalized at a round the
// current set does not precede — is a deterministic no-op: every honest
// replica evaluates the same finalized change against the same history,
// so all of them skip it together. Returns the new set and whether the
// change took effect.
func (h *History) Apply(c *types.ConfigChange, changeRound types.Round) (*ValidatorSet, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.sets[len(h.sets)-1]
	next, err := cur.Apply(c, changeRound+1)
	if err != nil {
		return nil, false
	}
	h.sets = append(h.sets, next)
	return next, true
}

// Descs returns the full history as wire descriptors (ascending epochs),
// the shape snapshots and WAL checkpoints carry.
func (h *History) Descs() []*types.ValidatorSetDesc {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*types.ValidatorSetDesc, len(h.sets))
	for i, s := range h.sets {
		out[i] = s.Desc()
	}
	return out
}

// VerifyChain checks a claimed history structurally: epoch 0 anchored at
// round 0, epochs dense and ascending, activations strictly increasing,
// every transition a single legal add/remove with F/P and surviving keys
// unchanged, and every set satisfying the Banyan bound. It does NOT check
// the chain against any local trust anchor — pair it with VerifyExtends.
func VerifyChain(descs []*types.ValidatorSetDesc) ([]*ValidatorSet, error) {
	if len(descs) == 0 {
		return nil, fmt.Errorf("membership: empty set history")
	}
	if len(descs) > types.MaxSnapshotSets {
		return nil, fmt.Errorf("membership: set history of %d exceeds limit", len(descs))
	}
	sets := make([]*ValidatorSet, 0, len(descs))
	for i, d := range descs {
		if d == nil {
			return nil, fmt.Errorf("membership: nil set at index %d", i)
		}
		if d.Epoch != uint32(i) {
			return nil, fmt.Errorf("membership: epoch %d at index %d", d.Epoch, i)
		}
		s, err := FromDesc(d)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			if s.Activation() != 0 {
				return nil, fmt.Errorf("membership: genesis set active from round %d", s.Activation())
			}
		} else {
			prev := sets[i-1]
			if s.Activation() <= prev.Activation() {
				return nil, fmt.Errorf("membership: epoch %d activation %d not after epoch %d activation %d",
					s.Epoch(), s.Activation(), prev.Epoch(), prev.Activation())
			}
			if _, err := prev.Diff(s); err != nil {
				return nil, err
			}
		}
		sets = append(sets, s)
	}
	return sets, nil
}

// VerifyExtends checks that a structurally valid claimed history agrees
// with the local one on every epoch both know: the local history is the
// replica's trust anchor (rooted at the genesis set it was configured
// with — the standard weak-subjectivity assumption), so a snapshot whose
// set history rewrites a known epoch is rejected no matter what
// certificate it carries.
func (h *History) VerifyExtends(descs []*types.ValidatorSetDesc) error {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for i, d := range descs {
		if i >= len(h.sets) {
			break
		}
		if !h.sets[i].Desc().Equal(d) {
			return fmt.Errorf("membership: claimed epoch %d disagrees with local history", i)
		}
	}
	if len(descs) < len(h.sets) {
		return fmt.Errorf("membership: claimed history of %d epochs is behind local %d", len(descs), len(h.sets))
	}
	return nil
}

// Restore replaces the history with a verified chain (VerifyChain +
// VerifyExtends must have passed).
func (h *History) Restore(descs []*types.ValidatorSetDesc) error {
	sets, err := VerifyChain(descs)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.sets[0].Desc().Equal(sets[0].Desc()) {
		return fmt.Errorf("membership: restored genesis disagrees with configured genesis")
	}
	h.sets = sets
	return nil
}

// Len returns the number of epochs the history holds.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.sets)
}
