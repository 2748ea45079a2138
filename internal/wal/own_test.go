package wal

import (
	"testing"
	"time"

	"banyan/internal/core"
	"banyan/internal/crypto"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

var _ Engine = (*core.Engine)(nil)

// coreCluster builds n=4 Banyan engines proposing inline (concrete)
// payloads of the given size.
func coreCluster(t *testing.T, payload int) (func(id types.ReplicaID) *core.Engine, []*crypto.Signer) {
	t.Helper()
	params := types.Params{N: 4, F: 1, P: 1}
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 42)
	return func(id types.ReplicaID) *core.Engine {
		e, err := core.New(core.Config{
			Params: params, Self: id, Keyring: keyring, Signer: signers[id],
			Delta: 10 * time.Millisecond,
			Payloads: protocol.PayloadFunc(func(r types.Round) types.Payload {
				data := make([]byte, payload)
				for i := range data {
					data[i] = byte(r) + byte(i)
				}
				return types.BytesPayload(data)
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}, signers
}

// writeLog hand-writes a journal, record by record.
func writeLog(t *testing.T, dir string, records []Record) {
	t.Helper()
	log, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := log.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// ownVotes wraps votes in the VoteMsg a replica journals as its own.
func ownVotes(votes ...types.Vote) Record {
	return Record{Kind: KindOwn, Msg: &types.VoteMsg{Votes: votes}}
}

// TestRecorderJournalsOnlyOwnSignatures: over a live run that relays
// headers, forms and forwards certificates and checkpoints, the journal
// holds nothing but what this replica signed — its proposals and its
// votes — plus checkpoints: no commit record, although the run commits.
// Everything else a restart needs, the cluster still holds.
func TestRecorderJournalsOnlyOwnSignatures(t *testing.T) {
	mk, _ := coreCluster(t, 256)
	const self = types.ReplicaID(0)
	dir := t.TempDir()
	engines := []protocol.Engine{nil, mk(1), mk(2), mk(3)}
	rec, err := NewRecorder(RecorderConfig{Dir: dir, Engine: mk(self), CheckpointEvery: 128})
	if err != nil {
		t.Fatal(err)
	}
	engines[self] = rec
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(4, 2*time.Millisecond),
		Seed:     7,
	}, simnet.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(time.Second)
	m := rec.Metrics()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if m["rounds"] < 50 || m["relays"] == 0 || m["wal_checkpoints"] == 0 {
		t.Fatalf("run too thin to judge: %d rounds, %d relays, %d checkpoints",
			m["rounds"], m["relays"], m["wal_checkpoints"])
	}

	_, recovery, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for i, r := range recovery.Records {
		switch r.Kind {
		case KindCheckpoint:
			counts[r.Kind.String()]++
			continue
		case KindOwn:
		default:
			t.Fatalf("record %d is %v", i, r.Kind)
		}
		switch msg := r.Msg.(type) {
		case *types.Proposal:
			if msg.Relayed || msg.Block == nil || msg.Block.Proposer != self {
				t.Fatalf("record %d journals a proposal this replica did not sign: relayed=%v", i, msg.Relayed)
			}
			counts["proposal"]++
		case *types.VoteMsg:
			for _, v := range msg.Votes {
				if v.Voter != self {
					t.Fatalf("record %d journals a vote by %d", i, v.Voter)
				}
			}
			counts["votes"]++
		default:
			t.Fatalf("record %d journals a %T", i, msg)
		}
	}
	for _, kind := range []string{"proposal", "votes", "checkpoint"} {
		if counts[kind] == 0 {
			t.Errorf("the journal holds no %s record: %v", kind, counts)
		}
	}
	t.Logf("%d rounds: %v, %.1f records per round", m["rounds"], counts,
		float64(m["wal_appends"])/float64(m["rounds"]))
}

// TestRecorderSkipsInboundRecords: a log written when the recorder still
// journaled inbound traffic — peer proposals, votes and certificates
// interleaved with the replica's own proposal, votes, certificate,
// Advance and header relay — still restores every own flag. The codec
// decodes the inbound records, so recovery reads past them to the own
// records behind; restart skips them.
func TestRecorderSkipsInboundRecords(t *testing.T) {
	mk, signers := coreCluster(t, 64)
	const self = types.ReplicaID(1)
	set := mk(self).History().Genesis()
	// Round a is led by a peer; self leads round b; round c is led by a
	// peer and self leaves it with a finalization vote.
	var a, b, c types.Round
	for r := types.Round(1); c == 0; r++ {
		switch leader := set.Leader(r); {
		case leader == self && b == 0:
			b = r
		case leader != self && a == 0:
			a = r
		case leader != self && b != 0 && r > a:
			c = r
		}
	}
	block := func(r types.Round, tag byte) *types.Block {
		leader := set.Leader(r)
		blk := types.NewBlock(r, leader, 0, types.BlockID{tag}, types.BytesPayload([]byte{tag}))
		if err := signers[leader].SignBlock(blk); err != nil {
			t.Fatal(err)
		}
		return blk
	}
	vote := func(kind types.VoteKind, by types.ReplicaID, blk *types.Block) types.Vote {
		return signers[by].SignVote(kind, blk.Round, blk.ID())
	}
	proposal := func(blk *types.Block) *types.Proposal {
		fv := vote(types.VoteFast, blk.Proposer, blk)
		return &types.Proposal{Block: blk, FastVote: &fv}
	}
	ba, bb, bcc := block(a, 'a'), block(b, 'b'), block(c, 'c')
	peer := (self + 2) % 4
	notar, err := types.NewCertificate(types.CertNotarization, a, ba.ID(), []types.Vote{
		vote(types.VoteNotarize, ba.Proposer, ba), vote(types.VoteNotarize, self, ba), vote(types.VoteNotarize, peer, ba),
	})
	if err != nil {
		t.Fatal(err)
	}
	relay := &types.Proposal{Header: bcc.SignedHeader(), Relayed: true}
	records := []Record{
		{Kind: KindInbound, From: ba.Proposer, Msg: proposal(ba)},
		ownVotes(vote(types.VoteFast, self, ba)),
		{Kind: KindInbound, From: peer, Msg: &types.VoteMsg{Votes: []types.Vote{vote(types.VoteFast, peer, ba)}}},
		{Kind: KindInbound, From: peer, Msg: &types.CertMsg{Cert: notar}},
		{Kind: KindOwn, Msg: &types.CertMsg{Cert: notar}},
		{Kind: KindOwn, Msg: &types.Advance{Notarization: notar}},
		{Kind: KindOwn, Msg: proposal(bb)},
		{Kind: KindInbound, From: peer, Msg: &types.VoteMsg{Votes: []types.Vote{vote(types.VoteFast, peer, bb)}}},
		{Kind: KindInbound, From: bcc.Proposer, Msg: proposal(bcc)},
		{Kind: KindOwn, Msg: relay},
		ownVotes(vote(types.VoteFast, self, bcc)),
		{Kind: KindInbound, From: peer, Msg: &types.VoteMsg{Votes: []types.Vote{vote(types.VoteFinalize, peer, bcc)}}},
		ownVotes(vote(types.VoteFinalize, self, bcc)),
		{Kind: KindCommit, Round: a, Block: ba.ID(), Blocks: 1},
	}
	var inbound int64
	for _, r := range records {
		if r.Kind == KindInbound {
			inbound++
		}
	}
	dir := t.TempDir()
	writeLog(t, dir, records)

	eng := mk(self)
	rec, err := NewRecorder(RecorderConfig{Dir: dir, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := len(rec.Recovered().Records); got != len(records) {
		t.Fatalf("recovered %d of %d records", got, len(records))
	}
	for _, act := range rec.Start(time.Unix(100, 0)) {
		if f, ok := act.(protocol.SafetyFault); ok {
			t.Fatalf("restart reported a safety fault: %v", f.Err)
		}
	}
	if m := rec.Metrics(); m["wal_replay_skipped"] != inbound || m["rejected"] != 0 {
		t.Fatalf("skipped %d records, rejected %d; want the %d inbound ones and none",
			m["wal_replay_skipped"], m["rejected"], inbound)
	}
	own := eng.OwnVotingRecord()
	for _, want := range []struct {
		round types.Round
		block *types.Block
		core.OwnRecord
	}{
		{a, ba, core.OwnRecord{FastVoteSent: true}},
		{b, bb, core.OwnRecord{Proposed: true, FastVoteSent: true}},
		{c, bcc, core.OwnRecord{FastVoteSent: true, FinalVoted: true}},
	} {
		got := own[want.round]
		if got.Proposed != want.Proposed || got.FastVoteSent != want.FastVoteSent || got.FinalVoted != want.FinalVoted ||
			len(got.NotarVotes) != 1 || got.NotarVotes[0] != want.block.ID() {
			t.Errorf("round %d restored %+v, want proposed=%v fast=%v final=%v N={%s}", want.round, got,
				want.Proposed, want.FastVoteSent, want.FinalVoted, want.block.ID())
		}
	}
}

// TestRestartRestoresVotesOfUnlearnedEpoch: the replica voted in rounds
// of an epoch its checkpoint predates, then crashed. The journal holds
// only its own votes, so it restarts knowing the genesis set alone — yet
// every flag comes back, survives the epoch being re-learned through the
// finalized change, and keeps a conflicting proposal in a round the
// replica left with a finalization vote from getting any vote at all.
func TestRestartRestoresVotesOfUnlearnedEpoch(t *testing.T) {
	params := types.Params{N: 5, F: 1, P: 1}
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 42)
	const removed = types.ReplicaID(4)
	change := &types.ConfigChange{Op: types.ConfigRemove, Replica: removed}
	mk := func(self types.ReplicaID) *core.Engine {
		e, err := core.New(core.Config{
			Params: params, Self: self, Keyring: keyring, Signer: signers[self],
			Delta: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// The change finalizes in round 1, so epoch 1 governs round 2 on.
	future := mk(0).History()
	genesis := future.Current()
	next, ok := future.Apply(change, 1)
	if !ok || next.Activation() != 2 {
		t.Fatalf("fixture: removal applies at %v, %v", next, ok)
	}
	var self types.ReplicaID
	for self = 0; self == removed || self == genesis.Leader(1) ||
		self == next.Leader(2) || self == next.Leader(3); self++ {
	}
	block := func(r types.Round, epoch uint32, leader types.ReplicaID, parent types.BlockID, p types.Payload) *types.Block {
		b := types.NewBlock(r, leader, 0, parent, p)
		b.Epoch = epoch
		if err := signers[leader].SignBlock(b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	vote := func(kind types.VoteKind, by types.ReplicaID, b *types.Block) types.Vote {
		return signers[by].SignVote(kind, b.Round, b.ID())
	}
	proposal := func(b *types.Block) *types.Proposal {
		fv := vote(types.VoteFast, b.Proposer, b)
		return &types.Proposal{Block: b, FastVote: &fv}
	}
	b1 := block(1, 0, genesis.Leader(1), types.Genesis().ID(), types.Payload{Data: []byte{1}, Change: change})
	a2 := block(2, 1, next.Leader(2), b1.ID(), types.BytesPayload([]byte{2}))
	a3 := block(3, 1, next.Leader(3), a2.ID(), types.BytesPayload([]byte{3}))
	b3 := block(3, 1, next.Leader(3), a2.ID(), types.BytesPayload([]byte{'x'}))

	dir := t.TempDir()
	writeLog(t, dir, []Record{
		ownVotes(vote(types.VoteFast, self, a2)),
		ownVotes(vote(types.VoteFast, self, a3)),
		ownVotes(vote(types.VoteFinalize, self, a3)),
	})
	eng := mk(self)
	rec, err := NewRecorder(RecorderConfig{Dir: dir, Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	now := time.Unix(100, 0)
	var signed []types.Vote
	apply := func(acts []protocol.Action) {
		t.Helper()
		for _, a := range acts {
			switch act := a.(type) {
			case protocol.SafetyFault:
				t.Fatalf("safety fault: %v", act.Err)
			case protocol.Broadcast:
				if vm, ok := act.Msg.(*types.VoteMsg); ok {
					signed = append(signed, vm.Votes...)
				}
			}
		}
	}
	apply(rec.Start(now))
	if n := eng.History().Len(); n != 1 {
		t.Fatalf("restart already knows %d epochs; the fixture needs the change unlearned", n)
	}
	checkFlags := func(when string) {
		t.Helper()
		own := eng.OwnVotingRecord()
		r2, r3 := own[2], own[3]
		if !r2.FastVoteSent || r2.FinalVoted || len(r2.NotarVotes) != 1 || r2.NotarVotes[0] != a2.ID() {
			t.Fatalf("%s: round 2 record %+v, want the fast vote for %s", when, r2, a2.ID())
		}
		if !r3.FastVoteSent || !r3.FinalVoted || len(r3.NotarVotes) != 1 || r3.NotarVotes[0] != a3.ID() {
			t.Fatalf("%s: round 3 record %+v, want fast and finalization votes for %s", when, r3, a3.ID())
		}
	}
	checkFlags("after restart")

	// Catch-up re-learns the epoch: round 1 fast-finalizes with the change.
	deliver := func(from types.ReplicaID, msg types.Message) {
		t.Helper()
		apply(rec.HandleMessage(from, msg, now))
	}
	deliver(b1.Proposer, proposal(b1))
	for _, id := range genesis.Members() {
		if id != self && id != b1.Proposer && eng.Tree().FinalizedRound() < 1 {
			deliver(id, &types.VoteMsg{Votes: []types.Vote{vote(types.VoteFast, id, b1)}})
		}
	}
	if eng.History().Len() != 2 || eng.Round() != 2 {
		t.Fatalf("epoch not re-learned: %d epochs, round %d", eng.History().Len(), eng.Round())
	}
	// Round 2: the journaled fast vote stands in for a new one.
	deliver(a2.Proposer, proposal(a2))
	for _, id := range next.Members() {
		if id != self && id != a2.Proposer && eng.Tree().FinalizedRound() < 2 {
			deliver(id, &types.VoteMsg{Votes: []types.Vote{vote(types.VoteFast, id, a2)}})
		}
	}
	if eng.Round() != 3 || eng.Tree().FinalizedRound() != 2 {
		t.Fatalf("round 2 did not finalize with the restored vote: round %d, finalized %d",
			eng.Round(), eng.Tree().FinalizedRound())
	}
	checkFlags("after re-learning the epoch")
	// Round 3: the leader equivocates. Neither twin gets a vote.
	deliver(b3.Proposer, proposal(b3))
	deliver(a3.Proposer, proposal(a3))
	now = now.Add(time.Second)
	apply(rec.HandleTimer(protocol.TimerID{}, now))
	checkFlags("after the conflicting proposal")
	for _, v := range signed {
		if v.Round >= 2 {
			t.Fatalf("restarted replica signed %v in a round its journal covers", v)
		}
	}
	if len(signed) == 0 {
		t.Fatal("fixture: the replica signed nothing live, not even in round 1")
	}
}
