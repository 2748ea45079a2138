package core

import (
	"slices"
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

	// byID is the round's one index by block ID: all it holds about a
	// block — the block, its flags, its notarization, its votes — is one
	// record, made by the first thing that names the ID (the block, a vote
	// for it, a certificate, an unlock proof, this replica's own vote). Nil
	// until then.
	byID map[types.BlockID]*blockState
	// spare lists, through their next links, the records a reset cleared,
	// for recFor to reuse.
	spare *blockState

	// gen counts the changes to what Definition 7.6 is evaluated over — a
	// vote filed, a block received, the ledgers scrubbed — and unlockGen is
	// its value when recomputeUnlock last ran: a round nothing happened to
	// is not evaluated again.
	gen, unlockGen uint64

	// allUnlocked is the sticky Condition-2 unlock state (Definition 7.6),
	// covering every current and future block of the round; a block's
	// Condition-1 unlock is its record's.
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
	// advanceProof is nil when advanceNotar unlocks itself (unlocksItself);
	// when advanceNotar is the round's fast-finalization certificate, no
	// Advance went out either.
	advanceBlock types.BlockID
	advanceNotar *types.Certificate
	advanceProof *types.UnlockProof

	// notarTimers marks, as a bitset (bit rank%64 of word rank/64), the
	// ranks for which a notarization-delay timer has been requested, to
	// avoid duplicate SetTimer actions; nil until the first.
	notarTimers []uint64

	// served counts the block bodies of this round sent to each peer in
	// answer to BlockRequests (maxServedPerPeer), indexed by ReplicaID; nil
	// until the first.
	served []uint8
}

// blockState is what a round holds for one block ID.
type blockState struct {
	// block is the block once received (Definition 7.1 blocks(k)): votes,
	// certificates and unlock proofs can name an ID before its body is here.
	block *types.Block
	// valid marks a block that passed valid() (Algorithm 2 line 62);
	// pending is its proposal while the parent credentials are not yet
	// established, awaiting revalidation.
	pending *types.Proposal
	valid   bool
	// notarVoted puts the block in N: this replica notarization-voted for
	// it (Algorithm 1 line 21).
	notarVoted bool
	// unlocked marks a Condition-1 unlock (Definition 7.6), from the votes
	// held, an unlock proof, or a certificate that unlocks itself.
	unlocked bool
	// lent has bit kind set once the kind's log lent a certificate its
	// prefix (lend); reset drops such a log instead of reusing it. It sits
	// with the flags above, not in voteSet, to keep a record at 256 bytes.
	lent uint8
	// notarization is the block's certificate, formed or received: a
	// notarization certificate, or the fast-finalization certificate that
	// replaces it once held (absorbFast). A received notarization that
	// unlocks itself replaces one that does not (onCert).
	notarization *types.Certificate
	// votes are the block's ledgers, one per vote kind, written through
	// recordVote; a kind's set exists from its first vote on (set). A fast
	// vote is also its voter's notarization vote for the block, so the
	// VoteNotarize ledger holds only the bare ones: a second block in the
	// round, the no-fast-path configuration, or a Byzantine voter. Kind k
	// is votes[k-1] (log).
	votes [types.VoteFast]voteSet
	// next links a cleared record into its round's spare list.
	next *blockState
}

func newRoundState() *roundState { return &roundState{} }

// reset clears the round for reuse as another one, keeping what it
// allocated: the map, the records, and each vote set's bitset and log,
// cleared and cut to length 0 so that no block, certificate or signature
// of the old round stays reachable through them (recordVote reslices
// them). A log that lent a certificate its prefix is dropped instead: the
// certificate still holds it, and reusing it would rewrite the signers
// and signatures of a published certificate.
func (rs *roundState) reset() {
	for _, r := range rs.byID {
		votes, lent := r.votes, r.lent
		*r = blockState{}
		for i, vs := range votes {
			clear(vs.voters)
			ids, sigs := vs.ids[:0], vs.sigs[:0]
			if lent&(1<<(i+1)) != 0 {
				ids, sigs = nil, nil
			} else {
				clear(vs.sigs)
			}
			r.votes[i] = voteSet{voters: vs.voters[:0], ids: ids, sigs: sigs}
		}
		r.next, rs.spare = rs.spare, r
	}
	clear(rs.byID)
	clear(rs.notarTimers)
	clear(rs.served)
	*rs = roundState{byID: rs.byID, spare: rs.spare, notarTimers: rs.notarTimers[:0], served: rs.served[:0]}
}

// rec returns the record of a block ID, nil when the round holds nothing
// for it.
func (rs *roundState) rec(id types.BlockID) *blockState { return rs.byID[id] }

// recFor returns the record of a block ID, making it on first use.
func (rs *roundState) recFor(id types.BlockID) *blockState {
	r := rs.byID[id]
	if r == nil {
		if rs.byID == nil {
			rs.byID = make(map[types.BlockID]*blockState)
		}
		if r = rs.spare; r != nil {
			rs.spare, r.next = r.next, nil
		} else {
			r = &blockState{}
		}
		rs.byID[id] = r
	}
	return r
}

// block returns the round's block with this ID, nil while its body is not
// here.
func (rs *roundState) block(id types.BlockID) *types.Block {
	if r := rs.byID[id]; r != nil {
		return r.block
	}
	return nil
}

// notarization returns the block's notarization certificate, nil if none.
func (rs *roundState) notarization(id types.BlockID) *types.Certificate {
	if r := rs.byID[id]; r != nil {
		return r.notarization
	}
	return nil
}

// unlocksItself reports whether a verified certificate proves its block
// unlocked on its own (Definition 7.6 condition 1): more than f+p members
// of the round's set signed the block's fast-vote digest in it — every
// signer of a fast-finalization certificate, the fast-marked signers of a
// notarization. Each such signature is a verified fast vote for the block
// by a distinct member, so |supp(b)| > f+p wherever the certificate is
// held, and it needs no separate unlock proof beside it.
func unlocksItself(c *types.Certificate, set *membership.ValidatorSet) bool {
	if c == nil {
		return false
	}
	all := c.Kind == types.CertFastFinalization
	threshold, fast := set.Params().UnlockThreshold(), 0
	for i, s := range c.Signers {
		if (all || c.FastSigned(i)) && set.Contains(s) {
			if fast++; fast > threshold {
				return true
			}
		}
	}
	return false
}

// addBlock files a received (or own) round block under blocks(k) and
// returns its record.
func (rs *roundState) addBlock(b *types.Block) *blockState {
	r := rs.recFor(b.ID())
	r.block = b
	rs.gen++
	return r
}

// votedOnlyFor reports N ⊆ {b}: this replica notarization-voted for no
// other block of the round.
func (rs *roundState) votedOnlyFor(b types.BlockID) bool {
	for id, r := range rs.byID {
		if r.notarVoted && id != b {
			return false
		}
	}
	return true
}

// markNotarTimer records that the notarization-delay timer of a rank was
// requested; it reports false if it was already.
func (rs *roundState) markNotarTimer(rank types.Rank) bool {
	w, bit := int(rank/64), uint64(1)<<(rank%64)
	if w >= len(rs.notarTimers) {
		rs.notarTimers = append(rs.notarTimers, make([]uint64, w+1-len(rs.notarTimers))...)
	}
	if rs.notarTimers[w]&bit != 0 {
		return false
	}
	rs.notarTimers[w] |= bit
	return true
}

// voteSet holds the votes of one kind for one block. ids and sigs are its
// log: every vote filed, in arrival order, each signature stored once.
// voters is the set of voters the log counts, as a bitset sized when the
// block's first vote arrives to the span of the round's validator set,
// which bounds every ID recordVote lets in; IDs are never reused or
// re-keyed, so a bit means the same replica in every epoch. A voter whose
// fast vote displaced its bare one, or that a scrub removed, loses its bit
// and keeps its log entry, so the log can hold entries the set no longer
// counts, and a voter scrubbed and filed again holds two. The log is only
// ever appended to until reset: a certificate formed from it is a capped
// prefix (certificate).
type voteSet struct {
	voters types.VoterSet
	ids    []types.ReplicaID
	sigs   [][]byte
}

// has reports whether the voter's vote is in the set; a nil set is empty.
func (vs *voteSet) has(voter types.ReplicaID) bool { return vs != nil && vs.voters.Has(voter) }

// count returns the number of votes in the set; a nil set is empty.
func (vs *voteSet) count() int {
	if vs == nil {
		return 0
	}
	return vs.voters.Count()
}

// sig returns the signature of a voter the set counts: its latest in the
// log.
func (vs *voteSet) sig(voter types.ReplicaID) []byte {
	for i := len(vs.ids) - 1; i >= 0; i-- {
		if vs.ids[i] == voter {
			return vs.sigs[i]
		}
	}
	return nil
}

// exact reports whether the log holds the counted votes and nothing else:
// every counted voter has an entry, so a log no longer than the count
// holds each of them once.
func (vs *voteSet) exact() bool { return vs == nil || len(vs.ids) == vs.count() }

// lend returns the whole log of the given kind as a certificate's signers
// and signatures, capped so that neither the certificate nor a later
// append can write into the other, and marks the log lent.
func (r *blockState) lend(kind types.VoteKind) ([]types.ReplicaID, [][]byte) {
	vs := r.set(kind)
	if vs == nil {
		return nil, nil
	}
	r.lent |= 1 << kind
	k := len(vs.ids)
	return vs.ids[:k:k], vs.sigs[:k:k]
}

// appendCounted appends the votes the set counts to ids and sigs, each
// voter's latest, in the order they were filed: the filtered copy of a log
// that is not exact.
func (vs *voteSet) appendCounted(ids []types.ReplicaID, sigs [][]byte) ([]types.ReplicaID, [][]byte) {
	if vs == nil {
		return ids, sigs
	}
	for i, id := range vs.ids {
		if vs.voters.Has(id) && !slices.Contains(vs.ids[i+1:], id) {
			ids, sigs = append(ids, id), append(sigs, vs.sigs[i])
		}
	}
	return ids, sigs
}

// set returns the votes of the given kind held for the block, nil if
// none: a set exists once sized by its first vote. A nil record holds
// none.
func (r *blockState) set(kind types.VoteKind) *voteSet {
	if r == nil || len(r.log(kind).ids) == 0 {
		return nil
	}
	return r.log(kind)
}

// log returns the block's ledger of the given kind, empty or not.
func (r *blockState) log(kind types.VoteKind) *voteSet { return &r.votes[kind-1] }

// set returns the votes of the given kind held for a block, nil if none.
func (rs *roundState) set(kind types.VoteKind, block types.BlockID) *voteSet {
	return rs.byID[block].set(kind)
}

// hasVote reports whether a vote would tell this round nothing new: it is
// in its ledger already, or it is a bare notarization vote from a voter
// whose fast vote for the same block is — the fast vote is that voter's
// notarization vote (notarSupport).
func (rs *roundState) hasVote(kind types.VoteKind, block types.BlockID, voter types.ReplicaID) bool {
	return rs.set(kind, block).has(voter) ||
		kind == types.VoteNotarize && rs.set(types.VoteFast, block).has(voter)
}

// recordVote files a verified vote signature. It is the one way into the
// ledgers — for peers' votes, proof-carried and replayed ones and this
// replica's own alike — so it is where the voter is pinned to the round's
// validator set, whatever the caller checked: a non-member's vote is
// refused, and a member's ID is an index below the set's span. It is also
// where a fast vote is made to count as its voter's notarization vote
// too: a voter is in at most one of the fast and the bare notarization
// set of a block, the fast vote displacing a bare notarization vote that
// arrived first.
func (rs *roundState) recordVote(kind types.VoteKind, block types.BlockID, voter types.ReplicaID, sig []byte, set *membership.ValidatorSet) {
	if !set.Contains(voter) || rs.hasVote(kind, block, voter) {
		return
	}
	r := rs.recFor(block)
	vs := r.log(kind)
	span := set.Span()
	if words := (span + 63) / 64; len(vs.voters) < words {
		// The block's first vote of the kind — or a later epoch, with a
		// joiner's higher ID, took the round over since that sized the set.
		if cap(vs.voters) >= words {
			vs.voters = vs.voters[:words]
		} else {
			voters := types.NewVoterSet(span)
			copy(voters, vs.voters)
			vs.voters = voters
		}
	}
	if cap(vs.ids) == 0 {
		// A new log, or one a reset dropped because it was lent, has room
		// for every member; only a voter filed again after a scrub grows it.
		vs.ids, vs.sigs = make([]types.ReplicaID, 0, span), make([][]byte, 0, span)
	}
	vs.ids, vs.sigs = append(vs.ids, voter), append(vs.sigs, sig)
	vs.voters.Add(voter)
	if bare := r.set(types.VoteNotarize); kind == types.VoteFast && bare != nil {
		bare.voters.Remove(voter)
	}
	rs.gen++
}

// notarSupport counts the replicas that notarization-voted for a block:
// those that fast-voted for it — an honest fast vote is only ever cast
// together with the notarization vote for the same block (Definition 6.2),
// so it is sent as that vote — plus those that sent a bare notarization
// vote (recordVote keeps the two disjoint).
func (rs *roundState) notarSupport(block types.BlockID) int {
	return rs.set(types.VoteFast, block).count() + rs.set(types.VoteNotarize, block).count()
}

// firstBlock returns the smallest ID among the blocks holding votes of
// the given kinds that ok accepts: several blocks of a round are dealt
// with in ID order, never in map order.
func (rs *roundState) firstBlock(ok func(types.BlockID) bool, kinds ...types.VoteKind) (best types.BlockID, found bool) {
	for id, r := range rs.byID {
		if found && id.Compare(best) >= 0 {
			continue
		}
		for _, kind := range kinds {
			if r.set(kind) != nil {
				if ok(id) {
					best, found = id, true
				}
				break
			}
		}
	}
	return best, found
}

// certificate aggregates the votes held for a block into a certificate of
// the given kind, signers in the order their votes were filed. A
// notarization takes the fast voters and the bare ones, marking the
// former. Whenever one log holds exactly the votes the certificate needs —
// a finalization, a fast-finalization, a notarization of only fast or
// only bare votes — the certificate is that log's capped prefix and copies
// no signature; the log is appended to only past it, and never reused once
// lent (reset), so the certificate stays as published. A log holding
// votes its set no longer counts, or a notarization merging the two
// kinds, is copied.
func (rs *roundState) certificate(kind types.CertKind, round types.Round, block types.BlockID) *types.Certificate {
	c := &types.Certificate{Kind: kind, Round: round, Block: block}
	r := rs.rec(block)
	votes := r.set(kind.VoteKind())
	var fast *voteSet
	if kind == types.CertNotarization {
		fast = r.set(types.VoteFast)
	}
	switch {
	case fast.count() > 0 && votes.count() == 0 && fast.exact():
		c.Signers, c.Sigs = r.lend(types.VoteFast)
		c.Fast = fastMarker(len(c.Signers), len(c.Signers))
	case fast.count() == 0 && votes.exact():
		c.Signers, c.Sigs = r.lend(kind.VoteKind())
	default:
		n := fast.count() + votes.count()
		c.Signers, c.Sigs = fast.appendCounted(make([]types.ReplicaID, 0, n), make([][]byte, 0, n))
		c.Fast = fastMarker(len(c.Signers), n)
		c.Signers, c.Sigs = votes.appendCounted(c.Signers, c.Sigs)
	}
	return c
}

// fastMarker returns a certificate's Fast marker for n signers of which
// the first marked are fast-marked: nil when none is.
func fastMarker(marked, n int) []byte {
	if marked == 0 {
		return nil
	}
	m := make([]byte, (n+7)/8)
	for i := range marked {
		m[i/8] |= 1 << (i % 8)
	}
	return m
}

// ownVotes returns the votes the given replica holds in this round's
// ledgers, as signed: by kind, then block ID.
func (rs *roundState) ownVotes(round types.Round, self types.ReplicaID) []types.Vote {
	var votes []types.Vote
	for _, kind := range [...]types.VoteKind{types.VoteNotarize, types.VoteFinalize, types.VoteFast} {
		first := len(votes)
		for block, r := range rs.byID {
			if vs := r.set(kind); vs.has(self) {
				votes = append(votes, types.Vote{
					Kind: kind, Round: round, Block: block, Voter: self, Signature: vs.sig(self),
				})
			}
		}
		slices.SortFunc(votes[first:], func(a, b types.Vote) int { return a.Block.Compare(b.Block) })
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
	for _, r := range rs.byID {
		for kind := range r.votes {
			r.votes[kind].voters.And(set.Mask())
		}
		if cert := r.notarization; cert != nil {
			ok := len(cert.Signers) >= notarQuorum
			for _, s := range cert.Signers {
				if !set.Contains(s) {
					ok = false
					break
				}
			}
			if !ok {
				r.notarization = nil
			}
		}
		// A certificate that survives and still unlocks itself over the
		// set's members keeps its block unlocked.
		r.unlocked = unlocksItself(r.notarization, set)
	}
	rs.allUnlocked = false
	rs.gen++
}

// isUnlocked reports whether the block is unlocked in this round under
// Definition 7.6, where finalized blocks are unlocked by definition.
func (rs *roundState) isUnlocked(id types.BlockID) bool {
	if r := rs.byID[id]; rs.allUnlocked || r != nil && r.unlocked {
		return true
	}
	return rs.finalized && rs.finalizedBlock == id
}
