package wal

import (
	"reflect"
	"testing"
	"time"

	"banyan/internal/core"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// TestJournalOldAndNewVoteForms: record formats did not change when the
// first vote of a round became one signature. A journal from before —
// the replica's own [notarize, fast] pair, peers' pairs, the leader's
// separate notarization vote, an unmarked notarization certificate — and
// one in today's form — lone fast votes — restore the same own voting
// record, with nothing rejected and nothing signed anew. (Both hold
// inbound records, as journals of their time did; restart skips them.)
func TestJournalOldAndNewVoteForms(t *testing.T) {
	mk, signers := coreCluster(t, 64)
	t0 := time.Unix(100, 0)
	var prop *types.Proposal
	for id := types.ReplicaID(0); prop == nil; id++ {
		for _, a := range mk(id).Start(t0) {
			if bc, ok := a.(protocol.Broadcast); ok {
				if p, ok := bc.Msg.(*types.Proposal); ok {
					prop = p
				}
			}
		}
	}
	b := prop.Block
	var self, peer types.ReplicaID = (b.Proposer + 1) % 4, (b.Proposer + 2) % 4
	vote := func(kind types.VoteKind, by types.ReplicaID) types.Vote {
		return signers[by].SignVote(kind, b.Round, b.ID())
	}
	msg := func(votes ...types.Vote) *types.VoteMsg { return &types.VoteMsg{Votes: votes} }
	unmarked, err := types.NewCertificate(types.CertNotarization, b.Round, b.ID(), []types.Vote{
		vote(types.VoteNotarize, b.Proposer), vote(types.VoteNotarize, self), vote(types.VoteNotarize, peer),
	})
	if err != nil || unmarked.Fast != nil {
		t.Fatalf("unmarked certificate: %v, marker %v", err, unmarked.Fast)
	}
	journals := map[string][]Record{
		"old": {
			{Kind: KindInbound, From: b.Proposer, Msg: prop},
			{Kind: KindOwn, Msg: msg(vote(types.VoteNotarize, self), vote(types.VoteFast, self))},
			{Kind: KindInbound, From: b.Proposer, Msg: msg(vote(types.VoteNotarize, b.Proposer))},
			{Kind: KindInbound, From: peer, Msg: &types.CertMsg{Cert: unmarked}},
			{Kind: KindInbound, From: peer, Msg: msg(vote(types.VoteNotarize, peer), vote(types.VoteFast, peer))},
		},
		"new": {
			{Kind: KindInbound, From: b.Proposer, Msg: prop},
			{Kind: KindOwn, Msg: msg(vote(types.VoteFast, self))},
			{Kind: KindInbound, From: peer, Msg: msg(vote(types.VoteFast, peer))},
		},
	}
	restored := make(map[string]*core.Engine)
	for name, records := range journals {
		dir := t.TempDir()
		writeLog(t, dir, records)
		eng := mk(self)
		rec, err := NewRecorder(RecorderConfig{Dir: dir, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		if got := len(rec.Recovered().Records); got != len(records) {
			t.Fatalf("%s journal: recovered %d of %d records", name, got, len(records))
		}
		for _, a := range rec.Start(t0.Add(time.Second)) {
			if bc, ok := a.(protocol.Broadcast); ok {
				if vm, ok := bc.Msg.(*types.VoteMsg); ok && vm.Votes[0].Round == b.Round {
					t.Fatalf("%s journal: restart re-voted in the journaled round: %v", name, vm.Votes)
				}
			}
		}
		if m := eng.Metrics(); m["rejected"] != 0 {
			t.Fatalf("%s journal: rejected=%d, want 0", name, m["rejected"])
		}
		restored[name] = eng
	}
	old, now := restored["old"].OwnVotingRecord(), restored["new"].OwnVotingRecord()
	if !reflect.DeepEqual(old, now) {
		t.Fatalf("voting records diverge:\n old form: %+v\n new form: %+v", old, now)
	}
	if rec := now[b.Round]; !rec.FastVoteSent || len(rec.NotarVotes) != 1 || rec.NotarVotes[0] != b.ID() {
		t.Fatalf("restored record %+v: the fast vote must restore N = {b}", rec)
	}
}
