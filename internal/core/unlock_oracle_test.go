package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"banyan/internal/crypto"
	"banyan/internal/membership"
	"banyan/internal/types"
)

// The oracle: the map-of-maps vote ledgers and the map-based evaluation of
// Definition 7.6 the engine and types.UnlockProof used before votes moved
// into bitsets, kept here verbatim in behaviour. TestLedgerMatchesOracle
// drives it and roundState through the same random schedules and compares
// everything either can be asked.

type oracleLedger = map[types.BlockID]map[types.ReplicaID][]byte

type oracleRound struct {
	blocks      map[types.BlockID]*types.Block
	votes       map[types.VoteKind]oracleLedger
	unlocked    map[types.BlockID]bool
	allUnlocked bool
}

func newOracleRound() *oracleRound {
	return &oracleRound{
		blocks: make(map[types.BlockID]*types.Block),
		votes: map[types.VoteKind]oracleLedger{
			types.VoteNotarize: {}, types.VoteFinalize: {}, types.VoteFast: {},
		},
		unlocked: make(map[types.BlockID]bool),
	}
}

func (o *oracleRound) recordVote(kind types.VoteKind, block types.BlockID, voter types.ReplicaID, sig []byte, set *membership.ValidatorSet) {
	if !set.Contains(voter) { // the membership pin onVote and VerifyUnlockProofIn applied upstream
		return
	}
	if _, dup := o.votes[kind][block][voter]; dup {
		return
	}
	if _, dup := o.votes[types.VoteFast][block][voter]; dup && kind == types.VoteNotarize {
		return
	}
	if o.votes[kind][block] == nil {
		o.votes[kind][block] = make(map[types.ReplicaID][]byte)
	}
	o.votes[kind][block][voter] = sig
	if kind == types.VoteFast {
		delete(o.votes[types.VoteNotarize][block], voter)
	}
}

func (o *oracleRound) notarSupport(block types.BlockID) int {
	return len(o.votes[types.VoteFast][block]) + len(o.votes[types.VoteNotarize][block])
}

func (o *oracleRound) scrubNonMembers(set *membership.ValidatorSet) {
	for _, ledger := range o.votes {
		for _, byVoter := range ledger {
			for voter := range byVoter {
				if !set.Contains(voter) {
					delete(byVoter, voter)
				}
			}
		}
	}
	o.unlocked = make(map[types.BlockID]bool)
	o.allUnlocked = false
}

func (o *oracleRound) recomputeUnlock(threshold int) {
	if o.allUnlocked {
		return
	}
	fastVotes := o.votes[types.VoteFast]
	nonLeader := make(map[types.ReplicaID]bool)
	for id, votes := range fastVotes {
		b, ok := o.blocks[id]
		if !ok || b.Rank == 0 {
			continue
		}
		for voter := range votes {
			nonLeader[voter] = true
		}
	}
	if len(nonLeader) > threshold {
		for id, b := range o.blocks {
			if b.Rank != 0 {
				o.unlocked[id] = true
			}
		}
	}
	for id, b := range o.blocks {
		if b.Rank != 0 || o.unlocked[id] {
			continue
		}
		union := len(nonLeader)
		for voter := range fastVotes[id] {
			if !nonLeader[voter] {
				union++
			}
		}
		if union > threshold {
			o.unlocked[id] = true
		}
	}
	if o.cond2StrictSupport() > threshold {
		o.allUnlocked = true
	}
}

func (o *oracleRound) cond2StrictSupport() int {
	support := func(skip types.BlockID, useSkip bool) int {
		voters := make(map[types.ReplicaID]bool)
		for id, votes := range o.votes[types.VoteFast] {
			if useSkip && id == skip {
				continue
			}
			if _, known := o.blocks[id]; !known {
				continue
			}
			for voter := range votes {
				voters[voter] = true
			}
		}
		return len(voters)
	}
	min := support(types.BlockID{}, false)
	for id, b := range o.blocks {
		if b.Rank != 0 {
			continue
		}
		if s := support(id, true); s < min {
			min = s
		}
	}
	return min
}

func (o *oracleRound) voteEntry(id types.BlockID) (types.UnlockEntry, bool) {
	b, ok := o.blocks[id]
	votes := o.votes[types.VoteFast][id]
	if !ok || len(votes) == 0 {
		return types.UnlockEntry{}, false
	}
	e := types.UnlockEntry{Header: b.Header()}
	for voter := range votes {
		e.Voters = append(e.Voters, voter)
	}
	sort.Slice(e.Voters, func(i, j int) bool { return e.Voters[i] < e.Voters[j] })
	for _, voter := range e.Voters {
		e.Sigs = append(e.Sigs, votes[voter])
	}
	return e, true
}

func (o *oracleRound) buildUnlockProof(round types.Round, block types.BlockID, threshold int) *types.UnlockProof {
	byID := func(entries []types.UnlockEntry) {
		sort.Slice(entries, func(i, j int) bool {
			return entries[i].Header.ID().Compare(entries[j].Header.ID()) < 0
		})
	}
	proof := &types.UnlockProof{Round: round, Block: block}
	for id, b := range o.blocks {
		if id != block && b.Rank == 0 {
			continue
		}
		if e, ok := o.voteEntry(id); ok {
			proof.Entries = append(proof.Entries, e)
		}
	}
	byID(proof.Entries)
	if oracleEvaluate(proof, threshold) {
		return proof
	}
	all := &types.UnlockProof{Round: round, Block: block, All: true}
	for id := range o.blocks {
		if e, ok := o.voteEntry(id); ok {
			all.Entries = append(all.Entries, e)
		}
	}
	byID(all.Entries)
	if oracleEvaluate(all, threshold) {
		return all
	}
	return nil
}

// certificate is what the engine's tryNotarize/tryFinalize built: the
// ledger entries turned back into votes and handed to NewCertificate.
func (o *oracleRound) certificate(kind types.CertKind, round types.Round, block types.BlockID) (*types.Certificate, error) {
	var votes []types.Vote
	add := func(k types.VoteKind) {
		for voter, sig := range o.votes[k][block] {
			votes = append(votes, types.Vote{Kind: k, Round: round, Block: block, Voter: voter, Signature: sig})
		}
	}
	add(kind.VoteKind())
	if kind == types.CertNotarization {
		add(types.VoteFast)
	}
	return types.NewCertificate(kind, round, block, votes)
}

// oracleEvaluate is types.UnlockProof.Evaluate as it was: shape checks,
// then the map-based cond1Support / cond2Support.
func oracleEvaluate(u *types.UnlockProof, threshold int) bool {
	for _, e := range u.Entries {
		if e.Header.Round != u.Round || len(e.Voters) != len(e.Sigs) {
			return false
		}
		for i := 1; i < len(e.Voters); i++ {
			if e.Voters[i-1] >= e.Voters[i] {
				return false
			}
		}
	}
	if !u.All {
		voters := make(map[types.ReplicaID]bool)
		for _, e := range u.Entries {
			if e.Header.ID() == u.Block || e.Header.Rank != 0 {
				for _, v := range e.Voters {
					voters[v] = true
				}
			}
		}
		return len(voters) > threshold
	}
	support := func(skip int) int {
		voters := make(map[types.ReplicaID]bool)
		for i, e := range u.Entries {
			if i == skip {
				continue
			}
			for _, v := range e.Voters {
				voters[v] = true
			}
		}
		return len(voters)
	}
	min := support(-1)
	for i, e := range u.Entries {
		if e.Header.Rank != 0 {
			continue
		}
		if s := support(i); s < min {
			min = s
		}
	}
	return min > threshold
}

// TestLedgerMatchesOracle: seeded random schedules — votes before their
// block, several rank-0 equivocations, rank != 0 blocks, bare notarization
// votes displaced by fast votes, duplicates, votes for IDs never received
// and from IDs outside the set, a validator removed mid-round — leave the
// bitset ledgers and the map oracle in the same state after every step:
// unlock flags, notarization support, the unlock proof built for every
// block and what it evaluates to under both evaluators, and the
// certificates formed from every block's votes. Every proof the prover
// builds verifies, signatures included.
func TestLedgerMatchesOracle(t *testing.T) {
	for _, params := range []types.Params{{N: 4, F: 1, P: 1}, {N: 7, F: 2, P: 1}, {N: 19, F: 6, P: 1}, {N: 19, F: 4, P: 4}} {
		t.Run(fmt.Sprintf("n=%d,p=%d", params.N, params.P), func(t *testing.T) {
			for trial := 0; trial < propertyTrials(25); trial++ {
				ledgerOracleTrial(t, params, int64(trial))
			}
		})
	}
}

// certVotes returns a certificate's signers' (signature, fast marker).
func certVotes(c *types.Certificate) map[types.ReplicaID][2]string {
	votes := make(map[types.ReplicaID][2]string, len(c.Signers))
	for i, s := range c.Signers {
		votes[s] = [2]string{string(c.Sigs[i]), fmt.Sprint(c.FastSigned(i))}
	}
	return votes
}

// sameCertificate reports whether two well-formed certificates are of the
// same kind, round and block and hold the same set of (signer, signature,
// fast marker): the engine lists signers in the order their votes
// arrived, types.NewCertificate in ascending order.
func sameCertificate(a, b *types.Certificate) bool {
	return a.CheckShape(1<<16, 0) == nil && b.CheckShape(1<<16, 0) == nil &&
		a.Kind == b.Kind && a.Round == b.Round && a.Block == b.Block && maps.Equal(certVotes(a), certVotes(b))
}

// genesisSet is the epoch-0 set over replicas 0..n-1.
func genesisSet(t testing.TB, params types.Params) *membership.ValidatorSet {
	t.Helper()
	members, keys := make([]types.ReplicaID, params.N), make([][]byte, params.N)
	for i := range members {
		members[i], keys[i] = types.ReplicaID(i), []byte{byte(i)}
	}
	set, err := membership.New(0, 0, members, keys, params.F, params.P)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// setWithout is the next epoch's set with one validator gone, under the
// largest f the smaller set tolerates.
func setWithout(t testing.TB, set *membership.ValidatorSet, gone types.ReplicaID, activation types.Round) *membership.ValidatorSet {
	t.Helper()
	var members []types.ReplicaID
	for _, m := range set.Members() {
		if m != gone {
			members = append(members, m)
		}
	}
	next, err := membership.New(set.Epoch()+1, activation, members, make([][]byte, len(members)), types.MaxFaultyFor(len(members)), 1)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func ledgerOracleTrial(t *testing.T, params types.Params, seed int64) {
	const round = types.Round(5)
	rng := rand.New(rand.NewSource(seed))
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N+1, uint64(seed))
	set := genesisSet(t, params)
	thr := params.UnlockThreshold()

	// The round's blocks: 1-3 rank-0 equivocations, 0-2 blocks of rank 1-2;
	// the last one is never received, only voted for.
	var blocks []*types.Block
	for i, ranks := 0, []types.Rank{0, 0, 0, 1, 2}; i < len(ranks); i++ {
		if (i == 1 || i == 2 || i == 3 || i == 4) && rng.Intn(2) == 0 {
			continue
		}
		b := types.NewBlock(round, set.ReplicaAt(round, ranks[i]), ranks[i], types.BlockID{1}, types.BytesPayload([]byte{byte(i)}))
		if err := signers[b.Proposer].SignBlock(b); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	ghost := types.NewBlock(round, set.ReplicaAt(round, 3), 3, types.BlockID{1}, types.BytesPayload([]byte{9}))
	pending := append([]*types.Block(nil), blocks...)
	targets := append(append([]*types.Block(nil), blocks...), ghost)

	rs, oracle := newRoundState(), newOracleRound()
	step := func(what string, f func(record func(types.VoteKind, types.BlockID, types.ReplicaID))) {
		f(func(kind types.VoteKind, id types.BlockID, voter types.ReplicaID) {
			var sig []byte
			if int(voter) < len(signers) {
				sig = signers[voter].SignVote(kind, round, id).Signature
			}
			rs.recordVote(kind, id, voter, sig, set)
			oracle.recordVote(kind, id, voter, sig, set)
		})
		rs.recomputeUnlock(thr)
		oracle.recomputeUnlock(thr)
		compareWithOracle(t, fmt.Sprintf("seed %d after %s", seed, what), rs, oracle, targets, round, thr, keyring, rng)
	}
	scrubbed := false
	for i := 0; i < 12*params.N; i++ {
		voter := types.ReplicaID(rng.Intn(params.N))
		target := targets[rng.Intn(len(targets))].ID()
		switch k := rng.Intn(20); {
		case k == 0 && len(pending) > 0: // a block arrives, possibly after votes for it
			b := pending[0]
			pending = pending[1:]
			step("block", func(func(types.VoteKind, types.BlockID, types.ReplicaID)) {
				rs.addBlock(b)
				oracle.blocks[b.ID()] = b
			})
		case k == 1: // a voter outside the set, within and beyond the registry
			step("stranger", func(record func(types.VoteKind, types.BlockID, types.ReplicaID)) {
				record(types.VoteFast, target, types.ReplicaID(params.N))
				record(types.VoteFinalize, target, types.ReplicaID(40000+rng.Intn(20000)))
			})
		case k == 2 && !scrubbed && params.N > 4: // an epoch without one validator takes the round over
			scrubbed = true
			set = setWithout(t, set, types.ReplicaID(rng.Intn(params.N)), round)
			thr = set.Params().UnlockThreshold()
			step("scrub", func(func(types.VoteKind, types.BlockID, types.ReplicaID)) {
				rs.scrubNonMembers(set, set.Params().NotarizationQuorum())
				oracle.scrubNonMembers(set)
			})
		case k < 6: // bare notarization vote, displaced if the fast vote follows
			step("notarize", func(record func(types.VoteKind, types.BlockID, types.ReplicaID)) {
				record(types.VoteNotarize, target, voter)
			})
		case k < 9:
			step("finalize", func(record func(types.VoteKind, types.BlockID, types.ReplicaID)) {
				record(types.VoteFinalize, target, voter)
			})
		default: // fast vote; Byzantine voters fast-vote several blocks, honest ones repeat themselves
			step("fast", func(record func(types.VoteKind, types.BlockID, types.ReplicaID)) {
				record(types.VoteFast, target, voter)
			})
		}
	}
}

func compareWithOracle(t *testing.T, when string, rs *roundState, oracle *oracleRound, targets []*types.Block,
	round types.Round, thr int, keyring *crypto.Keyring, rng *rand.Rand) {
	t.Helper()
	unlocked := make(map[types.BlockID]bool)
	for id, r := range rs.byID {
		if r.unlocked {
			unlocked[id] = true
		}
	}
	if !reflect.DeepEqual(unlocked, oracle.unlocked) || rs.allUnlocked != oracle.allUnlocked {
		t.Fatalf("%s: unlocked %v all %v, oracle %v all %v", when, unlocked, rs.allUnlocked, oracle.unlocked, oracle.allUnlocked)
	}
	for _, b := range targets {
		id := b.ID()
		if got, want := rs.notarSupport(id), oracle.notarSupport(id); got != want {
			t.Fatalf("%s: notarSupport(%s) = %d, oracle %d", when, id, got, want)
		}
		proof, want := rs.buildUnlockProof(round, id, thr), oracle.buildUnlockProof(round, id, thr)
		if !reflect.DeepEqual(proof, want) {
			t.Fatalf("%s: proof for %s is %+v, oracle %+v", when, id, proof, want)
		}
		if proof != nil {
			if err := crypto.VerifyUnlockProof(keyring, proof, thr); err != nil {
				t.Fatalf("%s: built proof does not verify: %v", when, err)
			}
			// The verifier on what a prover would not build: entries dropped,
			// the claim switched, one entry twice.
			mutant := *proof
			mutant.All = rng.Intn(2) == 0
			mutant.Block = targets[rng.Intn(len(targets))].ID()
			mutant.Entries = nil
			for _, e := range proof.Entries {
				for k := rng.Intn(3); k > 0; k-- {
					mutant.Entries = append(mutant.Entries, e)
				}
			}
			if got, want := mutant.Evaluate(thr), oracleEvaluate(&mutant, thr); got != want {
				t.Fatalf("%s: Evaluate(%+v) = %v, oracle %v", when, mutant, got, want)
			}
		}
		for _, kind := range []types.CertKind{types.CertNotarization, types.CertFinalization, types.CertFastFinalization} {
			want, err := oracle.certificate(kind, round, id)
			if err != nil {
				t.Fatal(err)
			}
			if got := rs.certificate(kind, round, id); !sameCertificate(got, want) {
				t.Fatalf("%s: %s for %s is %+v, oracle %+v", when, kind, id, got, want)
			}
		}
	}
}
