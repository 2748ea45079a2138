// Package blocktree maintains the tree of blocks a replica has received:
// parent links from a genesis root, notarization marks, the finalized
// chain, and the implicit-finalization rule (finalizing a block finalizes
// all its ancestors back to the previous finalized block, paper section 4).
//
// The tree has two parts. The block-ID-keyed maps hold the prune window:
// every block received in the rounds from the last prune floor up, with
// its notarization mark. The finalized chain is a log indexed by round,
// which keeps each finalized block's ID (and, unless deep-pruned, its
// body) after the maps have dropped it.
//
// The tree is deliberately protocol-agnostic: Banyan and ICC place one
// block per round-height, HotStuff chains blocks by quorum certificates,
// Streamlet chains blocks across non-contiguous epochs. All of them share
// this store.
package blocktree

import (
	"errors"
	"fmt"

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
	root    finalEntry // genesis: finalized at round 0 by definition

	// The prune window: the blocks of the rounds from the last prune floor
	// up, plus genesis.
	blocks    map[types.BlockID]*types.Block
	byRound   map[types.Round][]types.BlockID
	notarized map[types.BlockID]bool
	lengths   map[types.BlockID]int // memoized chain length (a finalized block's is in the log)

	// final is the finalized chain, in chunks of logChunk entries: entry i
	// is round finalBase+i, through finalizedRound (kMax). Rounds below
	// finalBase are unknown here.
	final          [][]finalEntry
	finalBase      types.Round
	finalizedRound types.Round
	bodiesFrom     types.Round // PruneDeep has dropped the bodies below this round
}

// logChunk is how many rounds one chunk of the finalized log holds. The
// log grows a chunk at a time, so an append never copies the history: a
// long-running replica's log costs one entry per round, with no pause to
// move it.
const logChunk = 64

// finalEntry is the finalized chain's record of one round.
type finalEntry struct {
	id     types.BlockID // zero for a round with no finalized block
	block  *types.Block  // nil once PruneDeep has passed the round
	length int           // chain edges to genesis; -1 when history below the log is unknown
}

// New creates a tree rooted at the canonical genesis block, which is
// notarized and finalized by definition.
func New() *Tree {
	g := types.Genesis()
	id := g.ID()
	return &Tree{
		genesis:    g,
		root:       finalEntry{id: id, block: g},
		blocks:     map[types.BlockID]*types.Block{id: g},
		byRound:    map[types.Round][]types.BlockID{0: {id}},
		notarized:  map[types.BlockID]bool{id: true},
		lengths:    make(map[types.BlockID]int),
		finalBase:  1,
		bodiesFrom: 1,
	}
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

// Block looks up a block of the prune window by ID.
func (t *Tree) Block(id types.BlockID) (*types.Block, bool) {
	b, ok := t.blocks[id]
	return b, ok
}

// Contains reports whether the block is stored in the prune window.
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

// IsNotarized reports whether the block is known notarized. Marks below
// the prune window are dropped with its blocks.
func (t *Tree) IsNotarized(id types.BlockID) bool { return t.notarized[id] }

// FinalizedRound returns the highest finalized round (kMax).
func (t *Tree) FinalizedRound() types.Round { return t.finalizedRound }

// entry returns the finalized chain's entry for a round, or nil when the
// log holds no finalized block there.
func (t *Tree) entry(round types.Round) *finalEntry {
	if round == 0 {
		return &t.root
	}
	if round < t.finalBase || round > t.finalizedRound {
		return nil
	}
	e := t.slot(round)
	if e.id == (types.BlockID{}) {
		return nil
	}
	return e
}

// slot returns the log's entry for a round it holds.
func (t *Tree) slot(round types.Round) *finalEntry {
	i := int(round - t.finalBase)
	return &t.final[i/logChunk][i%logChunk]
}

// push appends an entry to the log, opening a chunk when the last is full.
func (t *Tree) push(e finalEntry) {
	if n := len(t.final); n == 0 || len(t.final[n-1]) == logChunk {
		t.final = append(t.final, make([]finalEntry, 0, logChunk))
	}
	last := &t.final[len(t.final)-1]
	*last = append(*last, e)
}

// FinalizedAt returns the finalized block ID at a round, if any.
func (t *Tree) FinalizedAt(round types.Round) (types.BlockID, bool) {
	if e := t.entry(round); e != nil {
		return e.id, true
	}
	return types.BlockID{}, false
}

// FinalizedBlock returns the finalized block at a round. Without deep
// pruning it serves the whole finalized history the log holds; after
// PruneDeep only the rounds from its floor up.
func (t *Tree) FinalizedBlock(round types.Round) (*types.Block, bool) {
	if e := t.entry(round); e != nil && e.block != nil {
		return e.block, true
	}
	return nil, false
}

// IsFinalized reports whether a block of the prune window is on the
// finalized chain.
func (t *Tree) IsFinalized(id types.BlockID) bool {
	b, ok := t.blocks[id]
	if !ok {
		return false
	}
	e := t.entry(b.Round)
	return e != nil && e.id == id
}

// appendFinal records b as the finalized block of its round, above the
// log's tip; rounds it skips (Streamlet's epochs) get empty entries.
func (t *Tree) appendFinal(b *types.Block) {
	length := t.Length(b.Parent)
	if length >= 0 {
		length++
	}
	for r := max(t.finalizedRound+1, t.finalBase); r < b.Round; r++ {
		t.push(finalEntry{})
	}
	t.push(finalEntry{id: b.ID(), block: b, length: length})
	t.finalizedRound = b.Round
	// A finalized block is by definition notarized.
	t.notarized[b.ID()] = true
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
		if e := t.entry(b.Round); e != nil && e.id == id {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: round %d conflicts with finalized prefix (got %s)",
			ErrSafetyViolation, b.Round, id)
	}

	// Walk ancestors until we reach the finalized prefix. Rounds need not be
	// contiguous (Streamlet chains across epochs), so we stop at the first
	// finalized ancestor and then require it to be the *tip* of the finalized
	// chain — a lower finalized ancestor would mean this chain bypasses an
	// already-finalized block. An ancestor at a finalized round that is not
	// that round's block conflicts outright, whatever lies below it (the
	// finalized block there may have left the prune window).
	var chain []*types.Block
	cur := b
	for {
		chain = append(chain, cur)
		parent, ok := t.blocks[cur.Parent]
		if !ok {
			return nil, fmt.Errorf("%w: parent %s of %s", ErrMissingAncestor, cur.Parent, cur.ID())
		}
		if e := t.entry(parent.Round); e != nil {
			if e.id != parent.ID() {
				return nil, fmt.Errorf("%w: chain to %s passes round %d off the finalized chain",
					ErrSafetyViolation, id, parent.Round)
			}
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
		t.appendFinal(blk)
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
// silent acceptance. A window that starts above the round after the
// finalized tip leaves a gap the log cannot span: the log restarts at the
// window's floor and forgets the rounds below, so adoption costs the
// window's length however far ahead it lies.
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
			break
		}
		if e := t.entry(b.Round); e != nil && e.id != b.ID() {
			return nil, fmt.Errorf("%w: adopted chain disagrees at round %d",
				ErrSafetyViolation, b.Round)
		}
	}
	if floor := chain[0].Round; floor > t.finalizedRound+1 {
		t.final, t.finalBase = nil, floor
		t.bodiesFrom = max(t.bodiesFrom, floor)
	}
	prevFinal := t.finalizedRound
	var added []*types.Block
	for _, b := range chain {
		id := b.ID()
		stored, ok := t.blocks[id]
		if !ok {
			stored = b
			t.blocks[id] = b
			t.byRound[b.Round] = append(t.byRound[b.Round], id)
		}
		t.notarized[id] = true
		if b.Round > prevFinal {
			t.appendFinal(stored)
			added = append(added, stored)
		}
	}
	return added, nil
}

// Length returns the number of chain edges from the block to genesis, or
// -1 if the chain is not fully connected. A finalized block's length is
// its log entry's, so it stays exact after the block leaves the prune
// window; an unfinalized block resolves through its parent, so one whose
// parent has left the window (a fork off pruned history) reads -1.
func (t *Tree) Length(id types.BlockID) int {
	if l, ok := t.lengths[id]; ok {
		return l
	}
	b, ok := t.blocks[id]
	if !ok {
		return -1
	}
	if e := t.entry(b.Round); e != nil && e.id == id {
		return e.length
	}
	pl := t.Length(b.Parent)
	if pl < 0 {
		return -1
	}
	l := pl + 1
	t.lengths[id] = l
	return l
}

// Prune drops every block of the rounds strictly below keepFrom from the
// prune window — its body, notarization mark and memoized length —
// bounding the window's memory by the rounds kept, not by chain length.
// Genesis and the finalized tip always stay, so a later Finalize can
// join the tip. The finalized chain's log keeps each pruned finalized
// block, body included, so FinalizedAt, FinalizedBlock, FinalizedChain
// and conflict detection still cover it.
func (t *Tree) Prune(keepFrom types.Round) {
	keepFrom = min(keepFrom, t.finalizedRound)
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

// PruneDeep is Prune plus eviction of the finalized bodies below keepFrom
// from the log: only their IDs survive (so FinalizedChain, FinalizedAt
// and conflict detection stay exact). After a deep prune the tree can no
// longer serve chain-suffix sync below keepFrom — peers that far behind
// recover via snapshot state sync instead, which is exactly the trade
// that bounds a long-running replica's memory by the window size rather
// than by chain length.
func (t *Tree) PruneDeep(keepFrom types.Round) {
	t.Prune(keepFrom)
	keepFrom = min(keepFrom, t.finalizedRound)
	for r := max(t.bodiesFrom, t.finalBase); r < keepFrom; r++ {
		t.slot(r).block = nil
	}
	t.bodiesFrom = max(t.bodiesFrom, keepFrom)
}

// FinalizedChain returns the finalized block IDs the log holds, from round
// 1 (or the log's floor) up to kMax in order. Rounds with no finalized
// block (Streamlet's skipped epochs) are skipped.
func (t *Tree) FinalizedChain() []types.BlockID {
	var out []types.BlockID
	for _, chunk := range t.final {
		for _, e := range chunk {
			if e.id != (types.BlockID{}) {
				out = append(out, e.id)
			}
		}
	}
	return out
}
