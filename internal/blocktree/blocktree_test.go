package blocktree

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"banyan/internal/types"
)

// chainBlocks builds a linear chain of blocks on top of the genesis.
func chainBlocks(n int, tag byte) []*types.Block {
	blocks := make([]*types.Block, n)
	parent := types.Genesis().ID()
	for i := 0; i < n; i++ {
		b := types.NewBlock(types.Round(i+1), types.ReplicaID(i%4), 0, parent,
			types.BytesPayload([]byte{tag, byte(i)}))
		blocks[i] = b
		parent = b.ID()
	}
	return blocks
}

func TestAddAndLookup(t *testing.T) {
	tr := New()
	blocks := chainBlocks(3, 1)
	for _, b := range blocks {
		tr.Add(b)
		tr.Add(b) // idempotent
	}
	for _, b := range blocks {
		got, ok := tr.Block(b.ID())
		if !ok || !got.Equal(b) {
			t.Fatalf("block %v not found after Add", b)
		}
	}
	if got := len(tr.AtRound(1)); got != 1 {
		t.Fatalf("AtRound(1) returned %d blocks, want 1", got)
	}
	if !tr.Contains(types.Genesis().ID()) {
		t.Fatal("genesis missing")
	}
	if tr.Contains(types.BlockID{9}) {
		t.Fatal("phantom block reported present")
	}
}

func TestGenesisState(t *testing.T) {
	tr := New()
	g := tr.Genesis()
	if !tr.IsNotarized(g.ID()) || !tr.IsFinalized(g.ID()) {
		t.Fatal("genesis must be notarized and finalized by definition")
	}
	if tr.FinalizedRound() != 0 {
		t.Fatalf("FinalizedRound = %d, want 0", tr.FinalizedRound())
	}
}

func TestFinalizeImplicitAncestors(t *testing.T) {
	tr := New()
	blocks := chainBlocks(5, 1)
	for _, b := range blocks {
		tr.Add(b)
	}
	// Explicitly finalizing block 4 (round 5) finalizes rounds 1..5.
	chain, err := tr.Finalize(blocks[4].ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 5 {
		t.Fatalf("finalized %d blocks, want 5", len(chain))
	}
	for i, b := range chain {
		if b.Round != types.Round(i+1) {
			t.Fatalf("chain[%d].Round = %d, want %d (oldest first)", i, b.Round, i+1)
		}
		if !tr.IsFinalized(b.ID()) {
			t.Fatalf("chain[%d] not marked finalized", i)
		}
		if !tr.IsNotarized(b.ID()) {
			t.Fatalf("finalized block %d not notarized", i)
		}
	}
	if tr.FinalizedRound() != 5 {
		t.Fatalf("FinalizedRound = %d, want 5", tr.FinalizedRound())
	}
	// Re-finalizing is a no-op.
	again, err := tr.Finalize(blocks[4].ID())
	if err != nil || len(again) != 0 {
		t.Fatalf("re-finalize: chain=%d err=%v", len(again), err)
	}
}

func TestFinalizeMissingAncestor(t *testing.T) {
	tr := New()
	blocks := chainBlocks(3, 1)
	tr.Add(blocks[0])
	tr.Add(blocks[2]) // skip block 1
	if _, err := tr.Finalize(blocks[2].ID()); !errors.Is(err, ErrMissingAncestor) {
		t.Fatalf("err = %v, want ErrMissingAncestor", err)
	}
	// After the missing block arrives, finalization succeeds.
	tr.Add(blocks[1])
	chain, err := tr.Finalize(blocks[2].ID())
	if err != nil || len(chain) != 3 {
		t.Fatalf("chain=%d err=%v", len(chain), err)
	}
	// Finalizing an unknown block also reports missing ancestor.
	if _, err := tr.Finalize(types.BlockID{42}); !errors.Is(err, ErrMissingAncestor) {
		t.Fatalf("err = %v, want ErrMissingAncestor", err)
	}
}

func TestFinalizeConflictDetected(t *testing.T) {
	tr := New()
	main := chainBlocks(3, 1)
	forkTail := chainBlocks(3, 2) // same heights, different payloads
	for _, b := range main {
		tr.Add(b)
	}
	for _, b := range forkTail {
		tr.Add(b)
	}
	if _, err := tr.Finalize(main[2].ID()); err != nil {
		t.Fatal(err)
	}
	// Finalizing the forked chain's tip must be a safety violation.
	if _, err := tr.Finalize(forkTail[2].ID()); !errors.Is(err, ErrSafetyViolation) {
		t.Fatalf("err = %v, want ErrSafetyViolation", err)
	}
	// A block below the finalized height that is not on the chain too.
	if _, err := tr.Finalize(forkTail[0].ID()); !errors.Is(err, ErrSafetyViolation) {
		t.Fatalf("err = %v, want ErrSafetyViolation", err)
	}
}

// TestFinalizeBypassConflict: a chain that joins the finalized prefix
// below its tip (bypassing a finalized block) must be rejected even with
// non-contiguous rounds.
func TestFinalizeBypassConflict(t *testing.T) {
	tr := New()
	main := chainBlocks(2, 1)
	for _, b := range main {
		tr.Add(b)
	}
	if _, err := tr.Finalize(main[1].ID()); err != nil {
		t.Fatal(err)
	}
	// A round-5 block whose parent is genesis bypasses finalized rounds 1-2.
	bypass := types.NewBlock(5, 0, 0, types.Genesis().ID(), types.BytesPayload([]byte("x")))
	tr.Add(bypass)
	if _, err := tr.Finalize(bypass.ID()); !errors.Is(err, ErrSafetyViolation) {
		t.Fatalf("err = %v, want ErrSafetyViolation", err)
	}
}

// TestStreamletStyleGaps: non-contiguous rounds (epochs) finalize fine as
// long as the chain joins the finalized tip.
func TestStreamletStyleGaps(t *testing.T) {
	tr := New()
	b1 := types.NewBlock(2, 0, 0, types.Genesis().ID(), types.BytesPayload([]byte("a")))
	b2 := types.NewBlock(5, 1, 0, b1.ID(), types.BytesPayload([]byte("b")))
	b3 := types.NewBlock(6, 2, 0, b2.ID(), types.BytesPayload([]byte("c")))
	for _, b := range []*types.Block{b1, b2, b3} {
		tr.Add(b)
	}
	chain, err := tr.Finalize(b2.ID())
	if err != nil || len(chain) != 2 {
		t.Fatalf("chain=%d err=%v", len(chain), err)
	}
	if tr.FinalizedRound() != 5 {
		t.Fatalf("FinalizedRound = %d, want 5", tr.FinalizedRound())
	}
	chain, err = tr.Finalize(b3.ID())
	if err != nil || len(chain) != 1 {
		t.Fatalf("chain=%d err=%v", len(chain), err)
	}
	// A gap across the log's chunks: the skipped rounds read as empty.
	b4 := types.NewBlock(3*logChunk, 3, 0, b3.ID(), types.BytesPayload([]byte("d")))
	tr.Add(b4)
	if _, err := tr.Finalize(b4.ID()); err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.FinalizedAt(logChunk); ok {
		t.Fatal("a skipped round reads as finalized")
	}
	if got, ok := tr.FinalizedBlock(b4.Round); !ok || got != b4 || tr.Length(b4.ID()) != 4 {
		t.Fatalf("round %d: block %v, length %d", b4.Round, ok, tr.Length(b4.ID()))
	}
	if ids := tr.FinalizedChain(); len(ids) != 4 || ids[3] != b4.ID() {
		t.Fatalf("FinalizedChain lists %d blocks", len(ids))
	}
}

func TestNotarization(t *testing.T) {
	tr := New()
	blocks := chainBlocks(2, 1)
	tr.Add(blocks[0])
	tr.MarkNotarized(blocks[0].ID())
	if !tr.IsNotarized(blocks[0].ID()) {
		t.Fatal("block not notarized after MarkNotarized")
	}
	if tr.IsNotarized(blocks[1].ID()) {
		t.Fatal("unmarked block reported notarized")
	}
	// Marking before Add is allowed (certificates can precede blocks).
	tr.MarkNotarized(blocks[1].ID())
	if !tr.IsNotarized(blocks[1].ID()) {
		t.Fatal("pre-add notarization mark lost")
	}
}

func TestLength(t *testing.T) {
	tr := New()
	blocks := chainBlocks(4, 1)
	for _, b := range blocks {
		tr.Add(b)
	}
	if got := tr.Length(types.Genesis().ID()); got != 0 {
		t.Fatalf("genesis length = %d, want 0", got)
	}
	if got := tr.Length(blocks[3].ID()); got != 4 {
		t.Fatalf("tip length = %d, want 4", got)
	}
	orphan := types.NewBlock(9, 0, 0, types.BlockID{7}, types.Payload{})
	tr.Add(orphan)
	if got := tr.Length(orphan.ID()); got != -1 {
		t.Fatalf("orphan length = %d, want -1", got)
	}
}

func TestPrune(t *testing.T) {
	tr := New()
	blocks := chainBlocks(10, 1)
	var forks []*types.Block
	parent := types.Genesis().ID()
	for i, b := range blocks {
		tr.Add(b)
		// Add a losing fork block at each height.
		fork := types.NewBlock(types.Round(i+1), 3, 1, parent, types.BytesPayload([]byte{0xFF, byte(i)}))
		tr.Add(fork)
		forks = append(forks, fork)
		parent = b.ID()
	}
	if _, err := tr.Finalize(blocks[9].ID()); err != nil {
		t.Fatal(err)
	}
	tr.Prune(8)
	for i := 0; i < 7; i++ {
		if tr.Contains(forks[i].ID()) {
			t.Fatalf("fork at round %d survived pruning", i+1)
		}
		// The finalized block left the window but not the log.
		if got, ok := tr.FinalizedBlock(blocks[i].Round); !ok || got != blocks[i] {
			t.Fatalf("finalized block at round %d was pruned", i+1)
		}
	}
	if !tr.Contains(forks[8].ID()) {
		t.Fatal("fork above the prune floor was removed")
	}
	if got := tr.FinalizedRound(); got != 10 {
		t.Fatalf("finalized round %d after pruning, want 10", got)
	}
	if got := len(tr.FinalizedChain()); got != 10 {
		t.Fatalf("FinalizedChain has %d entries after pruning, want 10", got)
	}
	// Conflicts stay detected: the surviving fork at a finalized round,
	// and a chain through it that would join the finalized prefix below
	// its tip.
	if _, err := tr.Finalize(forks[8].ID()); !errors.Is(err, ErrSafetyViolation) {
		t.Fatalf("finalizing a fork below the tip: err=%v, want safety violation", err)
	}
	past := types.NewBlock(11, 0, 0, forks[8].ID(), types.BytesPayload([]byte{0xEE}))
	tr.Add(past)
	if _, err := tr.Finalize(past.ID()); !errors.Is(err, ErrSafetyViolation) {
		t.Fatalf("finalizing a chain through a fork: err=%v, want safety violation", err)
	}
	if _, err := tr.AdoptFinalized(chainBlocks(12, 2)[1:]); !errors.Is(err, ErrSafetyViolation) {
		t.Fatalf("adopting a window that conflicts below the floor: err=%v", err)
	}
}

// TestPruneHoldsOnlyTheWindow: however long the finalized chain grows,
// the block-ID-keyed maps hold only the prune window — at most 2×keep+1
// rounds, genesis included — while the log lists the whole chain. Only
// the log's bodies tell the two modes apart.
func TestPruneHoldsOnlyTheWindow(t *testing.T) {
	const (
		rounds = 10000
		keep   = 16
	)
	for _, deep := range []bool{false, true} {
		t.Run(fmt.Sprintf("deep=%v", deep), func(t *testing.T) {
			tr := New()
			parent := types.Genesis().ID()
			var first *types.Block
			for r := types.Round(1); r <= rounds; r++ {
				b := types.NewBlock(r, 0, 0, parent, types.BytesPayload([]byte{byte(r), byte(r >> 8)}))
				fork := types.NewBlock(r, 1, 1, parent, types.BytesPayload([]byte{0xFF, byte(r)}))
				tr.Add(b)
				tr.Add(fork)
				tr.MarkNotarized(fork.ID())
				if _, err := tr.Finalize(b.ID()); err != nil {
					t.Fatal(err)
				}
				if first == nil {
					first = b
				}
				parent = b.ID()
				if r%keep == 0 && r > keep {
					if deep {
						tr.PruneDeep(r - keep)
					} else {
						tr.Prune(r - keep)
					}
				}
				if len(tr.byRound) > 2*keep+1 {
					t.Fatalf("round %d: window holds %d rounds, want at most %d", r, len(tr.byRound), 2*keep+1)
				}
			}
			// Two blocks per round, genesis alone at round 0.
			if limit := 2*(len(tr.byRound)-1) + 1; len(tr.blocks) > limit || len(tr.notarized) > limit || len(tr.lengths) > limit {
				t.Fatalf("maps hold %d blocks, %d notarization marks, %d lengths over %d rounds",
					len(tr.blocks), len(tr.notarized), len(tr.lengths), len(tr.byRound))
			}
			chain := tr.FinalizedChain()
			if len(chain) != rounds || chain[0] != first.ID() || chain[rounds-1] != parent {
				t.Fatalf("FinalizedChain lists %d of %d rounds", len(chain), rounds)
			}
			if id, ok := tr.FinalizedAt(1); !ok || id != first.ID() {
				t.Fatal("FinalizedAt(1) lost")
			}
			got, ok := tr.FinalizedBlock(1)
			switch {
			case deep && ok:
				t.Fatal("FinalizedBlock(1) serves a body after deep pruning")
			case !deep && (!ok || got != first):
				t.Fatal("FinalizedBlock(1) lost the body without deep pruning")
			}
			if l := tr.Length(parent); l != rounds {
				t.Fatalf("tip length %d, want %d", l, rounds)
			}
		})
	}
}

func TestFinalizedChain(t *testing.T) {
	tr := New()
	blocks := chainBlocks(3, 1)
	for _, b := range blocks {
		tr.Add(b)
	}
	if _, err := tr.Finalize(blocks[2].ID()); err != nil {
		t.Fatal(err)
	}
	chain := tr.FinalizedChain()
	if len(chain) != 3 {
		t.Fatalf("FinalizedChain has %d entries, want 3", len(chain))
	}
	for i, id := range chain {
		if id != blocks[i].ID() {
			t.Fatalf("FinalizedChain[%d] mismatch", i)
		}
	}
}

// TestRandomForestInvariants grows a random forest, finalizes random
// chain prefixes, and checks the invariants: the finalized chain is
// connected, monotone, and never conflicts.
func TestRandomForestInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		tr := New()
		tips := []*types.Block{types.Genesis()}
		var all []*types.Block
		for i := 0; i < 60; i++ {
			parent := tips[rng.Intn(len(tips))]
			b := types.NewBlock(parent.Round+1, types.ReplicaID(rng.Intn(4)),
				types.Rank(rng.Intn(3)), parent.ID(),
				types.BytesPayload([]byte(fmt.Sprintf("%d-%d", trial, i))))
			tr.Add(b)
			tips = append(tips, b)
			all = append(all, b)
		}
		// Finalize a few random blocks; only extensions of the finalized
		// prefix may succeed.
		for i := 0; i < 10; i++ {
			b := all[rng.Intn(len(all))]
			chain, err := tr.Finalize(b.ID())
			switch {
			case err == nil:
				for j := 1; j < len(chain); j++ {
					if chain[j].Parent != chain[j-1].ID() {
						t.Fatal("finalized chain not connected")
					}
				}
			case errors.Is(err, ErrSafetyViolation), errors.Is(err, ErrMissingAncestor):
				// acceptable outcomes for random choices
			default:
				t.Fatalf("unexpected error: %v", err)
			}
		}
		// The finalized chain must be parent-connected end to end.
		ids := tr.FinalizedChain()
		prev := types.Genesis().ID()
		for _, id := range ids {
			b, ok := tr.Block(id)
			if !ok {
				t.Fatal("finalized block missing from store")
			}
			if b.Parent != prev {
				t.Fatal("finalized chain has a gap")
			}
			prev = id
		}
	}
}

// TestAdoptFinalizedFreshTree: a snapshot window grafts onto a tree that
// has only genesis, even though the window floor's parent is absent.
func TestAdoptFinalizedFreshTree(t *testing.T) {
	tr := New()
	blocks := chainBlocks(20, 3)
	window := blocks[12:] // rounds 13..20; parent of 13 unknown to tr
	added, err := tr.AdoptFinalized(window)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != len(window) {
		t.Fatalf("added %d blocks, want %d", len(added), len(window))
	}
	if tr.FinalizedRound() != 20 {
		t.Fatalf("FinalizedRound = %d, want 20", tr.FinalizedRound())
	}
	for _, b := range window {
		if !tr.IsFinalized(b.ID()) || !tr.IsNotarized(b.ID()) {
			t.Fatalf("round %d not finalized+notarized after adopt", b.Round)
		}
	}
	// A later Finalize joining the adopted tip works as usual.
	next := types.NewBlock(21, 0, 0, window[len(window)-1].ID(), types.BytesPayload([]byte{9}))
	tr.Add(next)
	chain, err := tr.Finalize(next.ID())
	if err != nil || len(chain) != 1 {
		t.Fatalf("Finalize after adopt: chain=%d err=%v", len(chain), err)
	}
}

// TestAdoptFinalizedFarAhead: a window far above the finalized tip costs
// the window, not the rounds below it: the log restarts at the window's
// floor.
func TestAdoptFinalizedFarAhead(t *testing.T) {
	const floor = 1_000_000
	tr := New()
	parent := types.BlockID{0xAB}
	window := make([]*types.Block, 8)
	for i := range window {
		window[i] = types.NewBlock(floor+types.Round(i), 0, 0, parent, types.BytesPayload([]byte{byte(i)}))
		parent = window[i].ID()
	}
	added, err := tr.AdoptFinalized(window)
	if err != nil || len(added) != len(window) {
		t.Fatalf("added %d blocks, err %v", len(added), err)
	}
	if len(tr.final) != 1 || len(tr.final[0]) != len(window) {
		t.Fatalf("log holds %d chunks for a %d-block window", len(tr.final), len(window))
	}
	if got := len(tr.FinalizedChain()); got != len(window) {
		t.Fatalf("FinalizedChain has %d entries, want %d", got, len(window))
	}
	if _, ok := tr.FinalizedAt(floor - 1); ok {
		t.Fatal("a round below the window reads as finalized")
	}
	if id, ok := tr.FinalizedAt(0); !ok || id != types.Genesis().ID() {
		t.Fatal("genesis is no longer finalized")
	}
	next := types.NewBlock(floor+8, 1, 0, parent, types.BytesPayload([]byte{9}))
	tr.Add(next)
	if chain, err := tr.Finalize(next.ID()); err != nil || len(chain) != 1 {
		t.Fatalf("Finalize after a far adopt: chain=%d err=%v", len(chain), err)
	}
}

// TestAdoptFinalizedOnPopulatedTree: adoption on a live tree returns only
// the rounds above the old finalized height and tolerates overlap that
// agrees with the prefix.
func TestAdoptFinalizedOnPopulatedTree(t *testing.T) {
	tr := New()
	blocks := chainBlocks(10, 4)
	for _, b := range blocks[:6] {
		tr.Add(b)
	}
	if _, err := tr.Finalize(blocks[3].ID()); err != nil {
		t.Fatal(err)
	}
	// Window overlaps rounds 3..4 (finalized) and extends to 10.
	added, err := tr.AdoptFinalized(blocks[2:])
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 6 {
		t.Fatalf("added %d blocks, want 6 (rounds 5..10)", len(added))
	}
	if added[0].Round != 5 || tr.FinalizedRound() != 10 {
		t.Fatalf("adopt result wrong: first=%d fin=%d", added[0].Round, tr.FinalizedRound())
	}
}

// TestAdoptFinalizedRejections: stale windows adopt to nothing; broken or
// conflicting windows are refused.
func TestAdoptFinalizedRejections(t *testing.T) {
	tr := New()
	blocks := chainBlocks(8, 5)
	if _, err := tr.AdoptFinalized(blocks); err != nil {
		t.Fatal(err)
	}
	// Stale: tip at or below the finalized round.
	added, err := tr.AdoptFinalized(blocks[2:5])
	if err != nil || added != nil {
		t.Fatalf("stale window: added=%v err=%v", added, err)
	}
	// Broken parent links.
	fork := chainBlocks(12, 6)
	if _, err := tr.AdoptFinalized([]*types.Block{fork[9], fork[11]}); err == nil {
		t.Fatal("discontiguous window accepted")
	}
	// Conflicting overlap with the finalized prefix.
	if _, err := tr.AdoptFinalized(fork[5:]); !errors.Is(err, ErrSafetyViolation) {
		t.Fatalf("conflicting window: err=%v, want safety violation", err)
	}
	// Nil block.
	if _, err := tr.AdoptFinalized([]*types.Block{nil}); err == nil {
		t.Fatal("nil block accepted")
	}
}

// TestPruneDeep: block bodies below the floor are dropped while the
// finalized log's IDs (conflict detection, FinalizedChain) survive.
func TestPruneDeep(t *testing.T) {
	tr := New()
	blocks := chainBlocks(30, 7)
	for _, b := range blocks {
		tr.Add(b)
	}
	if _, err := tr.Finalize(blocks[len(blocks)-1].ID()); err != nil {
		t.Fatal(err)
	}
	tr.PruneDeep(21)
	for _, b := range blocks[:20] {
		if tr.Contains(b.ID()) {
			t.Fatalf("round %d block survived deep prune", b.Round)
		}
		if id, ok := tr.FinalizedAt(b.Round); !ok || id != b.ID() {
			t.Fatalf("round %d finalized ID lost by deep prune", b.Round)
		}
	}
	for _, b := range blocks[20:] {
		if !tr.Contains(b.ID()) || !tr.IsFinalized(b.ID()) {
			t.Fatalf("round %d inside window damaged by deep prune", b.Round)
		}
	}
	if !tr.Contains(types.Genesis().ID()) {
		t.Fatal("genesis dropped by deep prune")
	}
	if got := len(tr.FinalizedChain()); got != 30 {
		t.Fatalf("FinalizedChain has %d entries after deep prune, want 30", got)
	}
	// Conflict detection below the floor still works: a divergent window
	// overlapping deep-pruned rounds must be refused.
	evil := chainBlocks(40, 8)
	if _, err := tr.AdoptFinalized(evil[2:]); !errors.Is(err, ErrSafetyViolation) {
		t.Fatalf("conflict below deep-pruned floor: err=%v", err)
	}
}
