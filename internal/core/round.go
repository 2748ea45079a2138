package core

import (
	"sort"
	"time"

	"banyan/internal/membership"
	"banyan/internal/types"
)

// roundState is the engine's per-round book-keeping. States are created
// lazily (messages for rounds ahead of the replica are buffered in them)
// and "started" when the replica actually enters the round.
type roundState struct {
	started bool
	// t0 is the local time the replica entered the round (Algorithm 1
	// line 20); proposal and notarization delays are measured from it.
	t0 time.Time

	proposed     bool // Algorithm 1 line 19
	fastVoteSent bool // Algorithm 1 line 18
	advanced     bool // the replica has moved past this round (line 54)
	finalVoted   bool // a finalization vote was broadcast (line 52)

	// blocks holds every round-k block received (Definition 7.1 blocks(k)),
	// keyed by ID. valid marks those that passed valid() (Algorithm 2
	// line 62); pending holds proposals whose parent credentials are not
	// yet established, awaiting revalidation.
	blocks  map[types.BlockID]*types.Block
	valid   map[types.BlockID]bool
	pending map[types.BlockID]*types.Proposal

	// notarVoted is N: blocks this replica notarization-voted for
	// (Algorithm 1 line 21).
	notarVoted map[types.BlockID]bool

	// Vote ledgers: signature by voter, per block, written through
	// recordVote. A fast vote is also its voter's notarization vote for the
	// block, so notarVotes holds only the bare ones: a second block in the
	// round, the no-fast-path configuration, or a Byzantine voter.
	fastVotes  voteLedger
	notarVotes voteLedger
	finalVotes voteLedger

	// notarizations holds formed or received notarization certificates.
	notarizations map[types.BlockID]*types.Certificate

	// Unlock state (Definition 7.6). unlocked marks per-block Condition-1
	// unlocks; allUnlocked is the sticky Condition-2 state covering every
	// current and future block of the round.
	unlocked    map[types.BlockID]bool
	allUnlocked bool

	// finalized records an explicit finalization seen for this round.
	finalized      bool
	finalizedBlock types.BlockID

	// barrier marks a round this replica has left (advanced, Advance
	// broadcast out, finalization vote cast) through a block that carries
	// a validator-set change, without entering the next round yet: the
	// next round's epoch — and therefore this replica's rank, the quorum
	// sizes, and the epoch stamp of anything it would sign there — depends
	// on whether the change block finalizes, so entry waits for the
	// round's finalization (tryAdvance completes it; tryJump subsumes it
	// when the finalization also commits).
	barrier bool

	// advanceBlock is the notarized-and-unlocked block this replica left
	// the round through; it becomes the parent of the replica's round-(k+1)
	// proposal. advanceNotar/advanceProof are its credentials, reused in
	// proposals (Addition 2) and the Advance broadcast (Addition 1).
	advanceBlock types.BlockID
	advanceNotar *types.Certificate
	advanceProof *types.UnlockProof

	// notarTimerSet tracks ranks for which a notarization-delay timer has
	// been requested, to avoid duplicate SetTimer actions.
	notarTimerSet map[types.Rank]bool

	// served counts the block bodies of this round sent to each peer in
	// answer to BlockRequests (maxServedPerPeer); nil until the first.
	served map[types.ReplicaID]int
}

func newRoundState() *roundState {
	return &roundState{
		blocks:        make(map[types.BlockID]*types.Block),
		valid:         make(map[types.BlockID]bool),
		pending:       make(map[types.BlockID]*types.Proposal),
		notarVoted:    make(map[types.BlockID]bool),
		fastVotes:     make(voteLedger),
		notarVotes:    make(voteLedger),
		finalVotes:    make(voteLedger),
		notarizations: make(map[types.BlockID]*types.Certificate),
		unlocked:      make(map[types.BlockID]bool),
		notarTimerSet: make(map[types.Rank]bool),
	}
}

// voteLedger maps block → voter → signature for one kind of vote.
type voteLedger = map[types.BlockID]map[types.ReplicaID][]byte

// ledger returns the ledger votes of the given kind are filed in.
func (rs *roundState) ledger(kind types.VoteKind) voteLedger {
	switch kind {
	case types.VoteNotarize:
		return rs.notarVotes
	case types.VoteFinalize:
		return rs.finalVotes
	default:
		return rs.fastVotes
	}
}

// hasVote reports whether a vote would tell this round nothing new: it is
// in its ledger already, or it is a bare notarization vote from a voter
// whose fast vote for the same block is — the fast vote is that voter's
// notarization vote (notarSupport).
func (rs *roundState) hasVote(kind types.VoteKind, block types.BlockID, voter types.ReplicaID) bool {
	if _, dup := rs.ledger(kind)[block][voter]; dup {
		return true
	}
	if kind != types.VoteNotarize {
		return false
	}
	_, dup := rs.fastVotes[block][voter]
	return dup
}

// recordVote files a verified vote signature. It is the one way into the
// ledgers, for peers' votes and this replica's own alike, so that a fast
// vote always counts as its voter's notarization vote too: a voter is in
// at most one of fastVotes[block] and notarVotes[block], the fast vote
// displacing a bare notarization vote that arrived first.
func (rs *roundState) recordVote(kind types.VoteKind, block types.BlockID, voter types.ReplicaID, sig []byte) {
	if rs.hasVote(kind, block, voter) {
		return
	}
	ledger := rs.ledger(kind)
	byVoter, ok := ledger[block]
	if !ok {
		byVoter = make(map[types.ReplicaID][]byte)
		ledger[block] = byVoter
	}
	byVoter[voter] = sig
	if kind == types.VoteFast {
		if bare := rs.notarVotes[block]; bare != nil {
			delete(bare, voter)
			if len(bare) == 0 {
				delete(rs.notarVotes, block)
			}
		}
	}
}

// notarSupport counts the replicas that notarization-voted for a block:
// those that fast-voted for it — an honest fast vote is only ever cast
// together with the notarization vote for the same block (Definition 6.2),
// so it is sent as that vote — plus those that sent a bare notarization
// vote (recordVote keeps the two disjoint).
func (rs *roundState) notarSupport(block types.BlockID) int {
	return len(rs.fastVotes[block]) + len(rs.notarVotes[block])
}

// ownVotes returns the votes the given replica holds in this round's
// ledgers, as signed: by kind, then block ID.
func (rs *roundState) ownVotes(round types.Round, self types.ReplicaID) []types.Vote {
	var votes []types.Vote
	for _, kind := range [...]types.VoteKind{types.VoteNotarize, types.VoteFinalize, types.VoteFast} {
		for block, byVoter := range rs.ledger(kind) {
			if sig, ok := byVoter[self]; ok {
				votes = append(votes, types.Vote{
					Kind: kind, Round: round, Block: block, Voter: self, Signature: sig,
				})
			}
		}
	}
	sort.Slice(votes, func(i, j int) bool {
		if votes[i].Kind != votes[j].Kind {
			return votes[i].Kind < votes[j].Kind
		}
		return lessBlockID(votes[i].Block, votes[j].Block)
	})
	return votes
}

// votesFor converts a ledger entry back into Vote values for certificate
// assembly.
func votesFor(kind types.VoteKind, round types.Round, block types.BlockID,
	m map[types.ReplicaID][]byte) []types.Vote {
	votes := make([]types.Vote, 0, len(m))
	for voter, sig := range m {
		votes = append(votes, types.Vote{
			Kind: kind, Round: round, Block: block, Voter: voter, Signature: sig,
		})
	}
	return votes
}

// scrubNonMembers removes every vote cast by a replica outside the given
// validator set, drops notarization certificates that carry a non-member
// signature or no longer clear the set's quorum, and resets the unlock
// state so recomputeUnlock re-derives it from the surviving votes. Called
// when an epoch activates over rounds the new set governs: votes buffered
// from before the activation was known must not count toward the new
// epoch's quorums.
func (rs *roundState) scrubNonMembers(set *membership.ValidatorSet, notarQuorum int) {
	scrub := func(ledger voteLedger) {
		for block, byVoter := range ledger {
			for voter := range byVoter {
				if !set.Contains(voter) {
					delete(byVoter, voter)
				}
			}
			if len(byVoter) == 0 {
				delete(ledger, block)
			}
		}
	}
	scrub(rs.fastVotes)
	scrub(rs.notarVotes)
	scrub(rs.finalVotes)
	for id, cert := range rs.notarizations {
		ok := len(cert.Signers) >= notarQuorum
		for _, s := range cert.Signers {
			if !set.Contains(s) {
				ok = false
				break
			}
		}
		if !ok {
			delete(rs.notarizations, id)
		}
	}
	rs.unlocked = make(map[types.BlockID]bool)
	rs.allUnlocked = false
}

// isUnlocked reports whether the block is unlocked in this round under
// Definition 7.6, where finalized blocks are unlocked by definition.
func (rs *roundState) isUnlocked(id types.BlockID) bool {
	if rs.allUnlocked || rs.unlocked[id] {
		return true
	}
	return rs.finalized && rs.finalizedBlock == id
}
