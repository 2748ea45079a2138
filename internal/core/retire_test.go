package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"banyan/internal/crypto"
	"banyan/internal/membership"
	"banyan/internal/types"
)

// Retired rounds (engine.go: retireRounds, round.go: reset): a round the
// finalized height has passed is reset in place and reused, so what a
// reset keeps must tell nothing of the old round, and what the engine
// keeps must stay bounded whatever a jump or a flood hands it.

// fillRound files, under a tag that marks every signature, the blocks'
// votes of all three kinds, a notarization of the first block, a pending
// proposal of the last, a notarization timer and a served body, and then
// evaluates Definition 7.6.
func fillRound(rs *roundState, tag byte, round types.Round, set *membership.ValidatorSet, blocks ...*types.Block) {
	sig := func(kind types.VoteKind, block int, voter types.ReplicaID) []byte {
		return []byte{tag, byte(kind), byte(block), byte(voter)}
	}
	for i, b := range blocks {
		rs.addBlock(b)
		for _, voter := range set.Members() {
			switch {
			case i == 0 && int(voter) < set.Size()-1:
				rs.recordVote(types.VoteFast, b.ID(), voter, sig(types.VoteFast, i, voter), set)
			case i > 0 || voter%2 == 0:
				rs.recordVote(types.VoteNotarize, b.ID(), voter, sig(types.VoteNotarize, i, voter), set)
			}
			if i == 0 && voter%3 != 1 {
				rs.recordVote(types.VoteFinalize, b.ID(), voter, sig(types.VoteFinalize, i, voter), set)
			}
		}
	}
	first, last := rs.rec(blocks[0].ID()), rs.rec(blocks[len(blocks)-1].ID())
	first.notarization = rs.certificate(types.CertNotarization, round, blocks[0].ID())
	last.pending = &types.Proposal{Block: blocks[len(blocks)-1]}
	rs.advanceBlock, rs.advanceNotar = blocks[0].ID(), first.notarization
	rs.markNotarTimer(types.Rank(len(blocks)))
	rs.served = append(rs.served, make([]uint8, 3)...)
	rs.served[2]++
	rs.recomputeUnlock(set.Params().UnlockThreshold())
}

// TestRecycledRoundMatchesFresh: a round that held three blocks, every
// vote kind, a notarization, a pending proposal and a scrub, reset and
// refilled as another round, reads as a fresh state filled the same way —
// and none of the old round's signatures, blocks or certificates is left
// in it.
func TestRecycledRoundMatchesFresh(t *testing.T) {
	params := types.Params{N: 7, F: 2, P: 1}
	set := genesisSet(t, params)
	members := slices.DeleteFunc(slices.Clone(set.Members()), func(id types.ReplicaID) bool { return id == 4 })
	keys := make([][]byte, len(members))
	for i, id := range members {
		keys[i] = []byte{byte(id)}
	}
	smaller, err := membership.New(1, 0, members, keys, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	block := func(round types.Round, rank types.Rank, tag byte) *types.Block {
		return types.NewBlock(round, set.ReplicaAt(round, rank), rank, types.Genesis().ID(), types.BytesPayload([]byte{tag}))
	}

	old := []*types.Block{block(5, 0, 1), block(5, 0, 2), block(5, 1, 3)}
	recycled := newRoundState()
	fillRound(recycled, 'o', 5, set, old...)
	recycled.scrubNonMembers(smaller, smaller.Params().NotarizationQuorum())
	recycled.recomputeUnlock(smaller.Params().UnlockThreshold())
	recs := map[*blockState]bool{}
	for _, rec := range recycled.byID {
		recs[rec] = true
	}
	recycled.reset()

	now := []*types.Block{block(6, 0, 4), block(6, 1, 5)}
	fresh := newRoundState()
	fillRound(fresh, 'n', 6, set, now...)
	fillRound(recycled, 'n', 6, set, now...)
	var inUse, spare []*blockState
	for _, rec := range recycled.byID {
		inUse = append(inUse, rec)
	}
	for rec := recycled.spare; rec != nil; rec = rec.next {
		spare = append(spare, rec)
	}
	for _, rec := range append(inUse, spare...) {
		if !recs[rec] {
			t.Fatal("the reset round made a new record instead of reusing its own")
		}
	}
	if len(spare) != 1 {
		t.Fatalf("%d records spare, want the one the refill did not need", len(spare))
	}

	self := set.Members()[2]
	ids := []types.BlockID{old[0].ID(), old[1].ID(), old[2].ID(), now[0].ID(), now[1].ID()}
	for _, id := range ids {
		for _, kind := range []types.VoteKind{types.VoteNotarize, types.VoteFinalize, types.VoteFast} {
			f, r := fresh.set(kind, id), recycled.set(kind, id)
			if !reflect.DeepEqual(f, r) || f.count() != r.count() {
				t.Errorf("%v set of %v: recycled %v, fresh %v", kind, id, r, f)
			}
		}
		for _, kind := range []types.CertKind{types.CertNotarization, types.CertFinalization, types.CertFastFinalization} {
			if f, r := fresh.certificate(kind, 6, id), recycled.certificate(kind, 6, id); !reflect.DeepEqual(f, r) {
				t.Errorf("%v certificate of %v: recycled %+v, fresh %+v", kind, id, r, f)
			}
		}
		if f, r := fresh.isUnlocked(id), recycled.isUnlocked(id); f != r {
			t.Errorf("isUnlocked(%v): recycled %v, fresh %v", id, r, f)
		}
		// The vote sets were compared above; a kept array of length 0 is
		// the same empty set as a nil one.
		f, r := fresh.peek(id), recycled.peek(id)
		f.votes, r.votes = [len(f.votes)]voteSet{}, [len(r.votes)]voteSet{}
		if !reflect.DeepEqual(f, r) {
			t.Errorf("record of %v: recycled %+v, fresh %+v", id, r, f)
		}
	}
	if f, r := fresh.ownVotes(6, self), recycled.ownVotes(6, self); !reflect.DeepEqual(f, r) {
		t.Errorf("ownVotes: recycled %v, fresh %v", r, f)
	}
	canonical := func(rs *roundState) []string {
		var out []string
		for _, s := range rs.supportSets(nil) {
			out = append(out, fmt.Sprint(s))
		}
		slices.Sort(out)
		return out
	}
	if f, r := canonical(fresh), canonical(recycled); !slices.Equal(f, r) {
		t.Errorf("supportSets: recycled %v, fresh %v", r, f)
	}
	if !slices.Equal(fresh.notarTimers, recycled.notarTimers) || !slices.Equal(fresh.served, recycled.served) {
		t.Errorf("timers %v / served %v, fresh %v / %v", recycled.notarTimers, recycled.served, fresh.notarTimers, fresh.served)
	}
	f, r := *fresh, *recycled
	f.byID, f.spare, f.notarTimers, f.served = nil, nil, nil, nil
	r.byID, r.spare, r.notarTimers, r.served = nil, nil, nil, nil
	if !reflect.DeepEqual(f, r) {
		t.Errorf("round fields: recycled %+v, fresh %+v", r, f)
	}

	// Nothing of the old round is reachable, in the records in use or in
	// the one kept spare, up to the arrays' capacity.
	for i, rec := range append(inUse, spare...) {
		if i >= len(inUse) {
			spare := *rec
			for kind, vs := range spare.votes {
				if len(vs.sigs) != 0 || len(vs.voters) != 0 {
					t.Errorf("spare record %d: %v set has length %d", i, types.VoteKind(kind+1), len(vs.sigs))
				}
			}
			spare.votes = [len(spare.votes)]voteSet{}
			if !reflect.DeepEqual(spare, blockState{}) {
				t.Errorf("spare record %d is not zero: %+v", i, spare)
			}
		}
		for kind, vs := range rec.votes {
			for _, s := range vs.sigs[:cap(vs.sigs)] {
				if s != nil && s[0] != 'n' {
					t.Errorf("record %d: old %v signature %v still reachable", i, types.VoteKind(kind+1), s)
				}
			}
			for _, w := range vs.voters[len(vs.voters):cap(vs.voters)] {
				if w != 0 {
					t.Errorf("record %d: %v voter bits past the set's length", i, types.VoteKind(kind+1))
				}
			}
		}
	}
}

// TestPublishedCertificateNeverChanges: a certificate the ledger forms —
// a capped prefix of a vote log, or a filtered copy of one — stays byte
// for byte as it was published while its round goes on: more votes, a
// bare vote displaced by a fast vote, a scrub, a scrubbed voter filed
// again under a later set, and the round's retirement and reuse as
// another round. Every one still verifies, which includes naming no
// signer twice (types.Certificate.CheckShape).
func TestPublishedCertificateNeverChanges(t *testing.T) {
	params := types.Params{N: 7, F: 2, P: 1}
	set := genesisSet(t, params)
	smaller := setWithout(t, set, 4, 5)
	later, err := membership.New(smaller.Epoch()+1, 5, set.Members(), make([][]byte, params.N), params.F, params.P)
	if err != nil {
		t.Fatal(err)
	}
	keyring, signers := crypto.GenerateCluster(crypto.Ed25519(), params.N, 9)
	block := func(round types.Round, rank types.Rank) types.BlockID {
		return types.NewBlock(round, set.ReplicaAt(round, rank), rank, types.Genesis().ID(), types.BytesPayload([]byte{byte(rank)})).ID()
	}
	rs := newRoundState()
	vote := func(kind types.VoteKind, round types.Round, id types.BlockID, in *membership.ValidatorSet, voters ...types.ReplicaID) {
		for _, v := range voters {
			rs.recordVote(kind, id, v, signers[v].SignVote(kind, round, id).Signature, in)
		}
	}
	type published struct {
		cert, copy *types.Certificate
		in         *membership.ValidatorSet
	}
	var certs []published
	form := func(round types.Round, id types.BlockID, in *membership.ValidatorSet, kinds ...types.CertKind) {
		for _, kind := range kinds {
			c := rs.certificate(kind, round, id)
			cp := *c
			cp.Signers, cp.Fast = slices.Clone(c.Signers), slices.Clone(c.Fast)
			cp.Sigs = make([][]byte, len(c.Sigs))
			for i, sig := range c.Sigs {
				cp.Sigs[i] = slices.Clone(sig)
			}
			certs = append(certs, published{c, &cp, in})
		}
	}
	check := func(step string) {
		t.Helper()
		for i, p := range certs {
			if !reflect.DeepEqual(p.cert, p.copy) {
				t.Fatalf("after %s: certificate %d changed: %+v, published as %+v", step, i, p.cert, p.copy)
			}
			if err := crypto.VerifyCertIn(keyring, p.cert, len(p.copy.Signers), p.in); err != nil {
				t.Fatalf("after %s: certificate %d (%v): %v", step, i, p.cert, err)
			}
		}
	}
	all := []types.CertKind{types.CertNotarization, types.CertFastFinalization, types.CertFinalization}

	b, twin := block(5, 0), block(5, 1)
	vote(types.VoteFast, 5, b, set, 0, 1, 2, 3, 4)
	vote(types.VoteFinalize, 5, b, set, 0, 1, 2, 3, 4)
	vote(types.VoteNotarize, 5, twin, set, 5, 6)
	form(5, b, set, all...)
	form(5, twin, set, types.CertNotarization)
	check("the first votes")

	vote(types.VoteFast, 5, b, set, 5)
	vote(types.VoteFinalize, 5, b, set, 5, 6)
	form(5, b, set, all...)
	check("more votes")

	vote(types.VoteNotarize, 5, b, set, 6)
	form(5, b, set, types.CertNotarization) // fast and bare votes merged
	vote(types.VoteFast, 5, b, set, 6)
	form(5, b, set, types.CertNotarization, types.CertFastFinalization)
	check("a bare vote displaced by a fast vote")

	rs.scrubNonMembers(smaller, smaller.Params().NotarizationQuorum())
	form(5, b, smaller, all...)
	check("scrubNonMembers")

	vote(types.VoteFast, 5, b, later, 4)
	vote(types.VoteFinalize, 5, b, later, 4)
	form(5, b, later, all...)
	check("a scrubbed voter filed again under a later set")
	if c := certs[len(certs)-1].cert; len(c.Signers) != params.N {
		t.Fatalf("finalization after the re-filed vote has %d signers, want %d", len(c.Signers), params.N)
	}

	rs.reset()
	next := block(6, 0)
	vote(types.VoteFast, 6, next, set, 6, 5, 4, 3, 2, 1, 0)
	vote(types.VoteFinalize, 6, next, set, 6, 5, 4, 3, 2)
	vote(types.VoteNotarize, 6, block(6, 1), set, 0, 1, 2, 3, 4, 5, 6)
	form(6, next, set, all...)
	check("retirement and reuse as another round")
}

// TestRetiredRoundsStayBounded: a jump of over 10 000 rounds retires
// every held round below the floor in one pass, a second pass under the
// same floor does nothing, the spare list never passes its cap, and a
// round flooded with block IDs is not kept for reuse.
func TestRetiredRoundsStayBounded(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(1, 3))
	e := r.eng
	flooded := e.getRound(2)
	for i := 0; i <= maxReusedRecords; i++ {
		b := types.NewBlock(2, set.ReplicaAt(2, 1), 1, types.Genesis().ID(), types.BytesPayload([]byte{byte(i)}))
		flooded.recordVote(types.VoteNotarize, b.ID(), 1, []byte{1}, set)
	}
	for round := types.Round(3); round < 3+2*maxSpareRounds; round++ {
		e.getRound(round).recordVote(types.VoteNotarize, types.Genesis().ID(), 1, []byte{1}, set)
	}
	const jump = 10_000
	for round := types.Round(jump); round < jump+5; round++ {
		e.getRound(round)
	}
	e.retireRounds(jump)
	for round := range e.rounds {
		if round < jump {
			t.Fatalf("round %d still held after retiring below %d", round, jump)
		}
	}
	if len(e.rounds) != 5 || len(e.spare) != maxSpareRounds {
		t.Fatalf("%d rounds held and %d spare after the jump, want 5 and %d", len(e.rounds), len(e.spare), maxSpareRounds)
	}
	for _, rs := range e.spare {
		if rs == flooded {
			t.Fatal("a round flooded with block IDs was kept for reuse")
		}
	}
	stale := newRoundState()
	e.rounds[jump-1] = stale
	e.retireRounds(jump)
	if e.rounds[jump-1] != stale {
		t.Fatal("retiring under the same floor again walked the rounds")
	}
	delete(e.rounds, jump-1)
	for i := 0; i < maxSpareRounds; i++ {
		e.getRound(jump + 5 + types.Round(i))
	}
	if len(e.spare) != 0 {
		t.Fatalf("%d spare rounds left after %d new rounds", len(e.spare), maxSpareRounds)
	}
}
