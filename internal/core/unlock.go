package core

import (
	"slices"

	"banyan/internal/types"
)

// This file implements the unlock machinery of Definitions 7.1–7.7: the
// support-set computations over received fast votes, the two unlock
// conditions, and the construction of transferable unlock proofs.

// recomputeUnlock re-evaluates Definition 7.6 for a round from its current
// fast votes and received blocks, if either changed since it last did.
// Support sets only grow, so unlock flags are monotone and never cleared.
// threshold is f + p.
//
// Only votes for *received* blocks participate: Definition 7.1 defines
// supp over blocks(k), and a vote for an unknown ID has an unknown rank.
// Votes are retained, so they are reconsidered as soon as the block shows
// up.
func (rs *roundState) recomputeUnlock(threshold int) {
	if rs.allUnlocked || rs.unlockGen == rs.gen {
		return
	}
	rs.unlockGen = rs.gen
	var buf [4]types.SupportSet
	sets := rs.supportSets(buf[:0])

	// Condition 1: |supp(b) ∪ supp(nonLeaderBlocks)| > f+p. For a rank != 0
	// block supp(b) is a subset of supp(nonLeaderBlocks), so all of them
	// unlock together.
	for _, r := range rs.byID {
		if r.block != nil && !r.unlocked && types.Cond1Support(r.supp(), sets) > threshold {
			r.unlocked = true
		}
	}

	// Condition 2: |supp(nonMaxBlocks(k))| > f+p unlocks everything, max(k)
	// read strictly (types.Cond2Support): an adversary feeding this replica
	// a partial view of an FP-finalized block's votes must not be able to
	// trip it.
	if types.Cond2Support(sets) > threshold {
		rs.allUnlocked = true
	}
}

// supp returns supp(b): the replicas whose fast vote for the block is held.
func (r *blockState) supp() types.VoterSet {
	if fast := r.set(types.VoteFast); fast != nil {
		return fast.voters
	}
	return nil
}

// supportSets appends supp(b) for every received block b holding fast
// votes: what Definition 7.6 is evaluated over.
func (rs *roundState) supportSets(sets []types.SupportSet) []types.SupportSet {
	for _, r := range rs.byID {
		if fast := r.set(types.VoteFast); fast != nil && r.block != nil {
			sets = append(sets, types.SupportSet{Leader: r.block.Rank == 0, Voters: fast.voters})
		}
	}
	return sets
}

// buildUnlockProof assembles a transferable proof (Definition 7.7) that
// `block` is unlocked in this round, from locally held fast votes. It
// prefers a Condition-1 proof (votes for the block itself plus votes for
// non-leader blocks) and falls back to a Condition-2 "all unlocked" proof
// carrying every received block's votes — a verifier re-derives the strict
// minimum over candidate max blocks itself, through the same evaluator.
// Returns nil if the local votes cannot establish either condition — the
// caller then relies on the block being finalized (unlocked by definition).
// Entries are in block-ID order, so proofs are deterministic byte-for-byte
// across replicas holding the same votes.
func (rs *roundState) buildUnlockProof(round types.Round, block types.BlockID, threshold int) *types.UnlockProof {
	var buf [4]types.SupportSet
	sets := rs.supportSets(buf[:0])
	var own types.VoterSet
	if r := rs.rec(block); r != nil && r.block != nil {
		own = r.supp()
	}
	all := types.Cond1Support(own, sets) <= threshold // no Condition-1 proof: try Condition 2
	if all && types.Cond2Support(sets) <= threshold {
		return nil
	}
	ids := make([]types.BlockID, 0, len(sets))
	for id, r := range rs.byID {
		if r.block != nil && r.set(types.VoteFast).count() > 0 && (all || id == block || r.block.Rank != 0) {
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, types.BlockID.Compare)
	proof := &types.UnlockProof{Round: round, Block: block, All: all, Entries: make([]types.UnlockEntry, len(ids))}
	for i, id := range ids {
		r := rs.rec(id)
		fast := r.set(types.VoteFast)
		e := &proof.Entries[i]
		e.Header = r.block.Header()
		e.Voters = fast.voters.AppendTo(make([]types.ReplicaID, 0, fast.count()))
		e.Sigs = make([][]byte, len(e.Voters))
		for j, voter := range e.Voters {
			e.Sigs[j] = fast.sig(voter)
		}
	}
	return proof
}
