// Package blocktree maintains the tree of blocks a replica has received:
// parent links from a genesis root, notarization marks, the finalized
// chain, and the implicit-finalization rule (finalizing a block finalizes
// all its ancestors back to the previous finalized block, paper section 4).
//
// The tree is deliberately protocol-agnostic: Banyan and ICC place one
// block per round-height, HotStuff chains blocks by quorum certificates,
// Streamlet chains blocks across non-contiguous epochs. All of them share
// this store.
package blocktree

import (
	"errors"
	"fmt"
	"sort"

	"banyan/internal/types"
)

// ErrMissingAncestor reports a finalization whose chain to the previous
// finalized block cannot be resolved yet; callers buffer and retry after
// more blocks arrive.
var ErrMissingAncestor = errors.New("blocktree: missing ancestor")

// ErrSafetyViolation reports two different finalized blocks at one height —
// the condition the protocol's safety property forbids. Integration tests
// assert it never occurs; a production node would halt on it.
var ErrSafetyViolation = errors.New("blocktree: conflicting finalization")

// Tree stores a replica's view of the block tree.
type Tree struct {
	genesis *types.Block

	blocks    map[types.BlockID]*types.Block
	byRound   map[types.Round][]types.BlockID
	notarized map[types.BlockID]bool

	finalized      map[types.Round]types.BlockID
	finalizedRound types.Round // highest explicitly/implicitly finalized round (kMax)

	lengths map[types.BlockID]int // memoized chain length (genesis = 0)
}

// New creates a tree rooted at the canonical genesis block, which is
// notarized and finalized by definition.
func New() *Tree {
	g := types.Genesis()
	t := &Tree{
		genesis:   g,
		blocks:    make(map[types.BlockID]*types.Block),
		byRound:   make(map[types.Round][]types.BlockID),
		notarized: make(map[types.BlockID]bool),
		finalized: make(map[types.Round]types.BlockID),
		lengths:   make(map[types.BlockID]int),
	}
	id := g.ID()
	t.blocks[id] = g
	t.byRound[0] = []types.BlockID{id}
	t.notarized[id] = true
	t.finalized[0] = id
	t.lengths[id] = 0
	return t
}

// Genesis returns the genesis block.
func (t *Tree) Genesis() *types.Block { return t.genesis }

// Add stores a block. Adding the same block twice is a no-op. The parent
// does not need to be present yet (messages can arrive out of order).
func (t *Tree) Add(b *types.Block) {
	id := b.ID()
	if _, ok := t.blocks[id]; ok {
		return
	}
	t.blocks[id] = b
	t.byRound[b.Round] = append(t.byRound[b.Round], id)
}

// Block looks up a block by ID.
func (t *Tree) Block(id types.BlockID) (*types.Block, bool) {
	b, ok := t.blocks[id]
	return b, ok
}

// Contains reports whether the block is stored.
func (t *Tree) Contains(id types.BlockID) bool {
	_, ok := t.blocks[id]
	return ok
}

// AtRound returns the IDs of all stored blocks at a round, in insertion
// order.
func (t *Tree) AtRound(round types.Round) []types.BlockID {
	ids := t.byRound[round]
	out := make([]types.BlockID, len(ids))
	copy(out, ids)
	return out
}

// MarkNotarized records that a notarization certificate exists for the
// block. The block itself may arrive later.
func (t *Tree) MarkNotarized(id types.BlockID) {
	t.notarized[id] = true
}

// IsNotarized reports whether the block is known notarized.
func (t *Tree) IsNotarized(id types.BlockID) bool { return t.notarized[id] }

// NotarizedAt returns the stored blocks at a round that are notarized.
func (t *Tree) NotarizedAt(round types.Round) []*types.Block {
	var out []*types.Block
	for _, id := range t.byRound[round] {
		if t.notarized[id] {
			out = append(out, t.blocks[id])
		}
	}
	return out
}

// FinalizedRound returns the highest finalized round (kMax).
func (t *Tree) FinalizedRound() types.Round { return t.finalizedRound }

// FinalizedAt returns the finalized block ID at a round, if any.
func (t *Tree) FinalizedAt(round types.Round) (types.BlockID, bool) {
	id, ok := t.finalized[round]
	return id, ok
}

// IsFinalized reports whether the block is on the finalized chain.
func (t *Tree) IsFinalized(id types.BlockID) bool {
	b, ok := t.blocks[id]
	if !ok {
		return false
	}
	fid, ok := t.finalized[b.Round]
	return ok && fid == id
}

// Finalize marks the block explicitly finalized and implicitly finalizes
// its ancestors down to the previous finalized block. It returns the newly
// finalized blocks in chain order (oldest first).
//
// Errors: ErrMissingAncestor if the chain back to the finalized prefix
// cannot be resolved (caller should retry later), ErrSafetyViolation if the
// chain contradicts an already-finalized block.
func (t *Tree) Finalize(id types.BlockID) ([]*types.Block, error) {
	b, ok := t.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: block %s not stored", ErrMissingAncestor, id)
	}
	if b.Round <= t.finalizedRound {
		// Already covered by the finalized prefix: consistent (no-op) if this
		// exact block is the finalized one at its round; any other block at
		// or below the finalized height is a conflicting chain.
		if fid, ok := t.finalized[b.Round]; ok && fid == id {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: round %d conflicts with finalized prefix (got %s)",
			ErrSafetyViolation, b.Round, id)
	}

	// Walk ancestors until we reach the finalized prefix. Rounds need not be
	// contiguous (Streamlet chains across epochs), so we stop at the first
	// finalized ancestor and then require it to be the *tip* of the finalized
	// chain — a lower finalized ancestor would mean this chain bypasses an
	// already-finalized block.
	var chain []*types.Block
	cur := b
	for {
		chain = append(chain, cur)
		parent, ok := t.blocks[cur.Parent]
		if !ok {
			return nil, fmt.Errorf("%w: parent %s of %s", ErrMissingAncestor, cur.Parent, cur.ID())
		}
		if t.IsFinalized(parent.ID()) {
			if parent.Round != t.finalizedRound {
				return nil, fmt.Errorf("%w: chain to %s joins finalized prefix at round %d, tip is %d",
					ErrSafetyViolation, id, parent.Round, t.finalizedRound)
			}
			break
		}
		cur = parent
	}

	// Commit the walk: oldest first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	for _, blk := range chain {
		t.finalized[blk.Round] = blk.ID()
		// A finalized block is by definition notarized.
		t.notarized[blk.ID()] = true
	}
	if last := chain[len(chain)-1]; last.Round > t.finalizedRound {
		t.finalizedRound = last.Round
	}
	return chain, nil
}

// AdoptFinalized grafts a finalized chain window — a peer's snapshot
// (state sync) or a WAL checkpoint's (restart) — onto the tree, fresh or
// populated: the window replaces whatever unfinalized guesswork the tree
// held for those rounds as the canonical finalized chain, and a later
// Finalize whose chain joins the window's tip succeeds exactly as it
// would have on the tree the window was taken from. The caller has
// already verified the window cryptographically (block signatures plus a
// quorum finalization certificate covering the tip); this method checks
// only structure and consistency:
//
//   - blocks ascend in contiguous parent-linked order;
//   - any overlap with the already-finalized prefix must agree block for
//     block, otherwise ErrSafetyViolation (a quorum-certified chain that
//     contradicts our finalized prefix is the protocol's fatal condition);
//   - a window whose tip is at or below the current finalized round is
//     stale and adopts to nothing.
//
// The window's oldest parent may be absent: history below the window
// floor stays unknown, which is fine because the finalized prefix is
// append-only from here on, and a finalization that would need it
// surfaces as ErrMissingAncestor (the sync subprotocol's cue), never as
// silent acceptance.
//
// It returns the newly finalized blocks (rounds strictly above the old
// finalized round) in chain order, for the host's Commit stream.
func (t *Tree) AdoptFinalized(chain []*types.Block) ([]*types.Block, error) {
	for i, b := range chain {
		if b == nil {
			return nil, fmt.Errorf("blocktree: adopt chain has nil block at %d", i)
		}
		if i > 0 {
			prev := chain[i-1]
			if b.Parent != prev.ID() || b.Round <= prev.Round {
				return nil, fmt.Errorf("blocktree: adopt chain breaks at round %d", b.Round)
			}
		}
	}
	if len(chain) == 0 || chain[len(chain)-1].Round <= t.finalizedRound {
		return nil, nil
	}
	// Overlap with the finalized prefix must agree before anything mutates.
	for _, b := range chain {
		if b.Round > t.finalizedRound {
			continue
		}
		if fid, ok := t.finalized[b.Round]; ok && fid != b.ID() {
			return nil, fmt.Errorf("%w: adopted chain disagrees at round %d",
				ErrSafetyViolation, b.Round)
		}
	}
	prevFinal := t.finalizedRound
	var added []*types.Block
	for _, b := range chain {
		id := b.ID()
		if _, ok := t.blocks[id]; !ok {
			t.blocks[id] = b
			t.byRound[b.Round] = append(t.byRound[b.Round], id)
		}
		t.notarized[id] = true
		t.finalized[b.Round] = id
		if b.Round > prevFinal {
			added = append(added, t.blocks[id])
		}
	}
	t.finalizedRound = chain[len(chain)-1].Round
	return added, nil
}

// Length returns the number of chain edges from the block to genesis, or
// -1 if the chain is not fully connected. Used by Streamlet's
// longest-notarized-chain rule.
func (t *Tree) Length(id types.BlockID) int {
	if l, ok := t.lengths[id]; ok {
		return l
	}
	b, ok := t.blocks[id]
	if !ok {
		return -1
	}
	pl := t.Length(b.Parent)
	if pl < 0 {
		return -1
	}
	l := pl + 1
	t.lengths[id] = l
	return l
}

// ChainTo returns the chain from (exclusive) the finalized prefix to the
// given block, oldest first, or nil if not fully connected.
func (t *Tree) ChainTo(id types.BlockID) []*types.Block {
	var chain []*types.Block
	cur, ok := t.blocks[id]
	for ok {
		if t.IsFinalized(cur.ID()) {
			break
		}
		chain = append(chain, cur)
		cur, ok = t.blocks[cur.Parent]
	}
	if !ok {
		return nil
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// Prune drops blocks in rounds strictly below keepFrom that are not on the
// finalized chain, plus stale memoized lengths, bounding long-run memory.
// Finalized blocks are kept (they form the output history unless the
// application has archived them elsewhere).
func (t *Tree) Prune(keepFrom types.Round) {
	for round, ids := range t.byRound {
		if round >= keepFrom {
			continue
		}
		kept := ids[:0]
		for _, id := range ids {
			if t.finalized[round] == id {
				kept = append(kept, id)
				continue
			}
			delete(t.blocks, id)
			delete(t.notarized, id)
			delete(t.lengths, id)
		}
		if len(kept) == 0 {
			delete(t.byRound, round)
		} else {
			t.byRound[round] = kept
		}
	}
}

// PruneDeep is Prune plus eviction of finalized *blocks* below keepFrom:
// only the finalized ID map survives (so FinalizedChain, FinalizedAt and
// conflict detection stay exact) while the block bodies are dropped.
// Genesis is always kept. After a deep prune the tree can no longer serve
// chain-suffix sync below keepFrom — peers that far behind recover via
// snapshot state sync instead, which is exactly the trade that bounds a
// long-running replica's memory by the window size rather than by chain
// length.
func (t *Tree) PruneDeep(keepFrom types.Round) {
	t.Prune(keepFrom)
	for round, ids := range t.byRound {
		if round >= keepFrom || round == 0 {
			continue
		}
		for _, id := range ids {
			delete(t.blocks, id)
			delete(t.notarized, id)
			delete(t.lengths, id)
		}
		delete(t.byRound, round)
	}
}

// Stats summarizes the tree for diagnostics.
type Stats struct {
	Blocks         int
	Notarized      int
	FinalizedRound types.Round
	MaxRound       types.Round
}

// Stats returns store counters.
func (t *Tree) Stats() Stats {
	s := Stats{
		Blocks:         len(t.blocks),
		Notarized:      len(t.notarized),
		FinalizedRound: t.finalizedRound,
	}
	for r := range t.byRound {
		if r > s.MaxRound {
			s.MaxRound = r
		}
	}
	return s
}

// FinalizedChain returns the finalized block IDs from round 1 up to kMax in
// order. Rounds with no explicitly recorded block (possible only after
// pruning gaps, which Finalize prevents) are skipped.
func (t *Tree) FinalizedChain() []types.BlockID {
	rounds := make([]types.Round, 0, len(t.finalized))
	for r := range t.finalized {
		if r == 0 {
			continue
		}
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	out := make([]types.BlockID, 0, len(rounds))
	for _, r := range rounds {
		out = append(out, t.finalized[r])
	}
	return out
}
