package wal

import (
	"reflect"
	"testing"
	"time"

	"banyan/internal/core"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// TestRecorderSkipsSettledTraffic: the recorder journals inbound messages
// before the engine sees them, so it asks the engine first (Engine.Settled)
// and leaves out what the engine is about to ignore. On the n=4 fast path
// that is most of a round's inbound traffic — the third voter's votes and
// every peer's Advance and finalization certificate arrive after this
// replica has finalized and left — and with no finalization votes sent or
// received either, the log grows by about half the records per round it
// used to (≈ 21 before). A log written this way still replays to the
// live engine's round, voting record and finalized chain, with no
// finalization vote recorded for any fast-path round and none signed
// during replay.
func TestRecorderSkipsSettledTraffic(t *testing.T) {
	mk, _ := relayCluster(t, 256)
	dir := t.TempDir()
	live := mk(0)
	engines := []protocol.Engine{nil, mk(1), mk(2), mk(3)}
	rec, err := NewRecorder(RecorderConfig{Dir: dir, Engine: live})
	if err != nil {
		t.Fatal(err)
	}
	engines[0] = rec
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(4, 2*time.Millisecond),
		Seed:     7,
	}, simnet.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	const simFor = time.Second
	net.Run(simFor)
	m := rec.Metrics()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	rounds := m["rounds"]
	if rounds < 50 || m["final_fast"] < rounds-2 {
		t.Fatalf("not a fast-path run: %d rounds, %d fast finalizations", rounds, m["final_fast"])
	}
	if m["settled_dropped"] < 5*rounds {
		t.Fatalf("settled_dropped = %d over %d rounds: late traffic was not dropped", m["settled_dropped"], rounds)
	}
	if m["final_votes_suppressed"] < rounds-2 {
		t.Fatalf("final_votes_suppressed = %d over %d fast-path rounds", m["final_votes_suppressed"], rounds)
	}
	perRound := float64(m["wal_appends"]) / float64(rounds)
	t.Logf("%d rounds, %.1f journal records per round", rounds, perRound)
	if perRound > 13 {
		t.Fatalf("%.1f journal records per fast-path round, want about 10", perRound)
	}

	restored := mk(0)
	rec2, err := NewRecorder(RecorderConfig{Dir: dir, Engine: restored})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	for _, r := range rec2.Recovered().Records {
		switch msg := r.Msg.(type) {
		case *types.VoteMsg:
			for _, v := range msg.Votes {
				if v.Kind == types.VoteFinalize {
					t.Fatalf("a finalization vote for round %d was journaled on the fast path", v.Round)
				}
			}
		}
	}
	for _, a := range rec2.Start(simnet.Epoch.Add(simFor)) {
		switch act := a.(type) {
		case protocol.SafetyFault:
			t.Fatalf("restart reported safety fault: %v", act.Err)
		case protocol.Broadcast:
			if vm, ok := act.Msg.(*types.VoteMsg); ok {
				for _, v := range vm.Votes {
					if v.Kind == types.VoteFinalize && v.Round < restored.Round() {
						t.Fatalf("replay signed a finalization vote for round %d", v.Round)
					}
				}
			}
		}
	}
	if restored.Round() != live.Round() {
		t.Fatalf("replayed to round %d, live engine stood in round %d", restored.Round(), live.Round())
	}
	if got, want := restored.Tree().FinalizedChain(), live.Tree().FinalizedChain(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed finalized chain (%d blocks) differs from the live one (%d)", len(got), len(want))
	}
	liveVotes, gotVotes := live.OwnVotingRecord(), restored.OwnVotingRecord()
	if !reflect.DeepEqual(gotVotes, liveVotes) {
		t.Fatalf("voting records diverge:\n live:     %+v\n replayed: %+v", liveVotes, gotVotes)
	}
	var fastRounds int
	for r, own := range gotVotes {
		if own.FinalVoted || len(own.FinalVotes) != 0 {
			t.Fatalf("round %d: replay restored a finalization vote that was never cast: %+v", r, own)
		}
		fastRounds++
	}
	if fastRounds == 0 {
		t.Fatal("no voting record to compare")
	}
	if n := restored.Metrics()["final_votes_suppressed"]; n != 0 {
		// Replay re-runs tryAdvance with signing off; the suppression
		// counter counts live decisions only.
		t.Fatalf("final_votes_suppressed = %d during replay, want 0", n)
	}
}

var _ Engine = (*core.Engine)(nil)
