package types

import "math/bits"

// VoterSet is a set of replica IDs as a bitset: bit id%64 of word id/64.
// It is the support set supp(·) of Definitions 7.1–7.6 and the voter half
// of the engine's vote ledgers; everything that reads votes works on its
// words. A set has room for the IDs below 64 × its length; reads beyond
// them see an empty set, Add does not grow it.
type VoterSet []uint64

// NewVoterSet returns an empty set with room for the IDs below n.
func NewVoterSet(n int) VoterSet { return make(VoterSet, (n+63)/64) }

// Has reports whether id is in the set.
func (s VoterSet) Has(id ReplicaID) bool { return s.word(int(id/64))>>(id%64)&1 == 1 }

// Add inserts id, which the set must have room for.
func (s VoterSet) Add(id ReplicaID) { s[id/64] |= 1 << (id % 64) }

// Remove deletes id from the set.
func (s VoterSet) Remove(id ReplicaID) {
	if int(id/64) < len(s) {
		s[id/64] &^= 1 << (id % 64)
	}
}

// And keeps only the members that are in mask too.
func (s VoterSet) And(mask VoterSet) {
	for w := range s {
		s[w] &= mask.word(w)
	}
}

// Count returns the number of members.
func (s VoterSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// AppendTo appends the members to ids in ascending order.
func (s VoterSet) AppendTo(ids []ReplicaID) []ReplicaID {
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			ids = append(ids, ReplicaID(64*w+bits.TrailingZeros64(word)))
		}
	}
	return ids
}

func (s VoterSet) word(w int) uint64 {
	if w < len(s) {
		return s[w]
	}
	return 0
}

// SupportSet is supp(b) for one received block b of a round (Definition
// 7.1): the replicas whose fast vote for b is in hand. Leader marks a
// rank-0 block. Definition 7.6 is evaluated over a round's SupportSets by
// Cond1Support and Cond2Support, for the engine from its ledgers and for
// a verifier from an UnlockProof's entries alike.
type SupportSet struct {
	Leader bool
	Voters VoterSet
}

// Cond1Support computes |supp(b) ∪ supp(nonLeaderBlocks)| (Definition 7.6,
// Condition 1), own being supp(b). For a rank != 0 block own is among the
// non-leader sets already and may be nil.
func Cond1Support(own VoterSet, sets []SupportSet) int {
	return unionCount(own, sets, -1, false)
}

// Cond2Support computes the Condition-2 support under the *strict*
// semantics: the smallest |supp(sets \ {m})| over every possible choice
// of the excluded rank-0 block m (including "m is a block the evaluator
// has not seen", i.e. excluding nothing).
//
// Definition 7.2 picks max(k) as the rank-0 block with the largest
// support, but a verifier working from a transferred vote set cannot know
// the true max: an adversary could withhold votes for an FP-finalized
// block so that a different block looks maximal, smuggling that block's
// honest votes into the Condition-2 count and forging an "all unlocked"
// proof for a round with an FP-finalized block (breaking Lemma 8.5 for
// f >= 2). The same holds for an engine fed a partial view of the votes.
// Requiring the bound for every candidate max closes the gap:
//
//   - Sound: if block b is FP-finalized, votes for blocks other than b
//     come from at most p honest + f Byzantine distinct voters, so the
//     choice m = b (or m absent when b's votes are withheld) caps the
//     support at f+p.
//   - Live: in Lemma 8.1's pigeonhole, either supp(max) > f+p (then
//     Condition 1 already unlocks max), or supp(max) <= f+p and the total
//     2f+2p+1 support means removing any single rank-0 block leaves more
//     than f+p voters, so the strict condition still fires.
func Cond2Support(sets []SupportSet) int {
	min := unionCount(nil, sets, -1, true) // the excluded max may be a block not among the sets
	for i, s := range sets {
		if !s.Leader {
			continue
		}
		if n := unionCount(nil, sets, i, true); n < min {
			min = n
		}
	}
	return min
}

// unionCount returns the number of distinct voters across own and the
// sets other than sets[skip], the rank-0 ones only if leaders is set.
func unionCount(own VoterSet, sets []SupportSet, skip int, leaders bool) int {
	words := len(own)
	for _, s := range sets {
		words = max(words, len(s.Voters))
	}
	n := 0
	for w := 0; w < words; w++ {
		x := own.word(w)
		for i, s := range sets {
			if i != skip && (leaders || !s.Leader) {
				x |= s.Voters.word(w)
			}
		}
		n += bits.OnesCount64(x)
	}
	return n
}
