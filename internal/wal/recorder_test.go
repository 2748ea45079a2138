package wal

import (
	"errors"
	"testing"
	"time"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// fakeEngine is a scripted Engine: it emits preset actions and records
// every call the Recorder makes, so tests can assert journaling and
// replay order without a real cluster.
type fakeEngine struct {
	calls   []string
	actions []protocol.Action // returned by the next Handle*/Start call
}

func (f *fakeEngine) ID() types.ReplicaID { return 3 }
func (f *fakeEngine) Protocol() string    { return "fake" }
func (f *fakeEngine) Start(time.Time) []protocol.Action {
	f.calls = append(f.calls, "start")
	return f.take()
}
func (f *fakeEngine) HandleMessage(from types.ReplicaID, msg types.Message, _ time.Time) []protocol.Action {
	f.calls = append(f.calls, "msg:"+msg.Kind().String())
	return f.take()
}
func (f *fakeEngine) HandleTimer(protocol.TimerID, time.Time) []protocol.Action {
	f.calls = append(f.calls, "timer")
	return f.take()
}
func (f *fakeEngine) Metrics() map[string]int64 { return map[string]int64{"fake": 1} }
func (f *fakeEngine) BeginReplay()              { f.calls = append(f.calls, "begin-replay") }
func (f *fakeEngine) ReplayOwn(msg types.Message, _ time.Time) []protocol.Action {
	f.calls = append(f.calls, "replay-own:"+msg.Kind().String())
	return f.take()
}
func (f *fakeEngine) EndReplay(time.Time) []protocol.Action {
	f.calls = append(f.calls, "end-replay")
	return f.take()
}
func (f *fakeEngine) Snapshot() *protocol.Snapshot             { return &protocol.Snapshot{} }
func (f *fakeEngine) RestoreSnapshot(*protocol.Snapshot) error { return nil }
func (f *fakeEngine) take() []protocol.Action {
	a := f.actions
	f.actions = nil
	return a
}

func voteMsg(round types.Round) *types.VoteMsg {
	return &types.VoteMsg{Votes: []types.Vote{{
		Kind: types.VoteNotarize, Round: round, Voter: 3, Signature: []byte("sig"),
	}}}
}

func TestRecorderJournalsAndReplays(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(100, 0)

	// First life: start, receive a message, emit a vote and a commit.
	// Only the vote is journaled: neither the inbound message nor the
	// commit is.
	eng := &fakeEngine{}
	rec, err := NewRecorder(RecorderConfig{Dir: dir, Engine: eng,
		Options: Options{Sync: SyncPolicy{EveryRecord: true}}})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(now)
	eng.actions = []protocol.Action{
		protocol.Broadcast{Msg: voteMsg(1)},
		protocol.Broadcast{Msg: &types.SyncRequest{From: 1, To: 2}}, // not journaled
		protocol.Commit{Blocks: []*types.Block{types.Genesis()}, Explicit: protocol.FinalizeFast},
	}
	rec.HandleMessage(5, voteMsg(1), now)
	rec.Crash() // even with EveryRecord, everything is already durable

	// Second life: the own vote must replay through ReplayOwn, bracketed
	// by Begin/EndReplay.
	eng2 := &fakeEngine{}
	rec2, err := NewRecorder(RecorderConfig{Dir: dir, Engine: eng2,
		Options: Options{Sync: SyncPolicy{EveryRecord: true}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rec2.Recovered(); got.Truncated || len(got.Records) != 1 {
		t.Fatalf("recovered %d records (truncated=%v), want 1", len(got.Records), got.Truncated)
	}
	rec2.Start(now)
	want := []string{"begin-replay", "start", "replay-own:vote", "end-replay"}
	if len(eng2.calls) != len(want) {
		t.Fatalf("replay calls = %v, want %v", eng2.calls, want)
	}
	for i := range want {
		if eng2.calls[i] != want[i] {
			t.Fatalf("replay call %d = %q, want %q (all: %v)", i, eng2.calls[i], want[i], eng2.calls)
		}
	}
	m := rec2.Metrics()
	if m["wal_replayed_records"] != 1 {
		t.Fatalf("wal_replayed_records = %d", m["wal_replayed_records"])
	}
	if err := rec2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderForcesOwnBeforeSend: under group commit with an
// effectively-infinite window, a message the replica signed must still
// be durable the moment record() returns — i.e. before the host can
// send it — so a crash can never forget a vote the network saw.
func TestRecorderForcesOwnBeforeSend(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(100, 0)
	lazy := Options{Sync: SyncPolicy{Interval: time.Hour, Bytes: 1 << 30}}

	eng := &fakeEngine{}
	rec, err := NewRecorder(RecorderConfig{Dir: dir, Engine: eng, Options: lazy})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(now)
	// A batch carrying an own vote (and a commit, which is not journaled)
	// forces the group down before record() returns; the crash right
	// after abandons only what was never synced.
	commit := protocol.Commit{Blocks: []*types.Block{types.Genesis()}, Explicit: protocol.FinalizeSlow}
	eng.actions = []protocol.Action{protocol.Broadcast{Msg: voteMsg(2)}, commit}
	rec.HandleMessage(2, voteMsg(2), now)
	rec.Crash()

	_, recovery, err := Open(dir, lazy)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovery.Records) != 1 || recovery.Records[0].Kind != KindOwn {
		t.Fatalf("recovered %v, want the own vote alone: it must be durable when record() returns", recovery.Records)
	}
}

// TestRecorderLeavesOwnMessageUncached: journaling an own proposal
// encodes it into the log's pooled buffer and leaves the message as it
// was, so encoding it again takes the one exact-size allocation.
func TestRecorderLeavesOwnMessageUncached(t *testing.T) {
	eng := &fakeEngine{}
	rec, err := NewRecorder(RecorderConfig{Dir: t.TempDir(), Engine: eng,
		Options: Options{Sync: SyncPolicy{EveryRecord: true}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	now := time.Unix(100, 0)
	rec.Start(now)
	b := types.NewBlock(4, 3, 0, types.BlockID{1}, types.BytesPayload(make([]byte, 4<<10)))
	b.Signature = []byte("sig")
	own := &types.Proposal{Block: b}
	eng.actions = []protocol.Action{protocol.Broadcast{Msg: own}}
	rec.HandleMessage(2, voteMsg(3), now)
	if n := rec.Metrics()["wal_appends"]; n != 1 {
		t.Fatalf("wal_appends = %d, want the own proposal journaled", n)
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := types.EncodeMessage(own); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("EncodeMessage of the journaled proposal: %v allocs/op, want 1 (no cached encoding)", n)
	}
}

// TestRecorderOneSyncPerBatch: an action batch carrying a 300 KiB own
// proposal and an own vote costs one fsync, the recorder's batch Sync,
// whatever the log's byte threshold (256 KiB by default).
func TestRecorderOneSyncPerBatch(t *testing.T) {
	eng := &fakeEngine{}
	rec, err := NewRecorder(RecorderConfig{Dir: t.TempDir(), Engine: eng,
		Options: Options{Sync: SyncPolicy{Interval: time.Hour}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	now := time.Unix(100, 0)
	rec.Start(now)
	b := types.NewBlock(4, 3, 0, types.BlockID{1}, types.BytesPayload(make([]byte, 300<<10)))
	b.Signature = []byte("sig")
	eng.actions = []protocol.Action{
		protocol.Broadcast{Msg: &types.Proposal{Block: b}},
		protocol.Broadcast{Msg: voteMsg(4)},
	}
	before := rec.Metrics()["wal_syncs"]
	rec.HandleMessage(2, voteMsg(3), now)
	m := rec.Metrics()
	if m["wal_appends"] != 2 || m["wal_syncs"]-before != 1 {
		t.Fatalf("proposal and vote: %d appends, %d fsyncs, want 2 and 1", m["wal_appends"], m["wal_syncs"]-before)
	}
}

// countSends tallies own-signature Broadcast/Send actions in a batch.
func countSends(acts []protocol.Action) int {
	n := 0
	for _, a := range acts {
		switch a.(type) {
		case protocol.Broadcast, protocol.Send:
			n++
		}
	}
	return n
}

// TestRecorderSuppressesSendsOnWALError: once the log cannot make an own
// vote durable, the vote must not reach the transport — the replica goes
// silent (crash-faulty) instead of running with a journal that
// under-reports what the network saw, which is the equivocation window
// the WAL exists to close. Commits still reach the host, the error is
// visible in metrics.
func TestRecorderSuppressesSendsOnWALError(t *testing.T) {
	now := time.Unix(100, 0)
	batch := func() []protocol.Action {
		return []protocol.Action{
			protocol.Broadcast{Msg: voteMsg(2)},
			protocol.Send{To: 1, Msg: voteMsg(2)},
			protocol.Commit{Blocks: []*types.Block{types.Genesis()}, Explicit: protocol.FinalizeSlow},
		}
	}
	stick := func(r *Recorder) {
		r.log.mu.Lock()
		r.log.err = errors.New("disk gone")
		r.log.mu.Unlock()
	}

	t.Run("sticky error drops own sends", func(t *testing.T) {
		eng := &fakeEngine{}
		rec, err := NewRecorder(RecorderConfig{Dir: t.TempDir(), Engine: eng,
			Options: Options{Sync: SyncPolicy{EveryRecord: true}}})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Crash()
		rec.Start(now)
		stick(rec)
		eng.actions = batch()
		acts := rec.HandleMessage(1, voteMsg(2), now)
		if n := countSends(acts); n != 0 {
			t.Fatalf("%d own sends externalized after WAL error, want 0 (%v)", n, acts)
		}
		var commits int
		for _, a := range acts {
			if _, ok := a.(protocol.Commit); ok {
				commits++
			}
		}
		if commits != 1 {
			t.Fatalf("commit dropped with the sends: %v", acts)
		}
		m := rec.Metrics()
		if m["wal_suppressed_sends"] != 2 || m["wal_errors"] == 0 {
			t.Fatalf("metrics = suppressed %d, errors %d; want 2 and > 0",
				m["wal_suppressed_sends"], m["wal_errors"])
		}
		if rec.Err() == nil {
			t.Fatal("sticky error not surfaced through Err")
		}
	})

	t.Run("forced group sync failure drops own sends", func(t *testing.T) {
		eng := &fakeEngine{}
		rec, err := NewRecorder(RecorderConfig{Dir: t.TempDir(), Engine: eng,
			Options: Options{Sync: SyncPolicy{Interval: time.Hour, Bytes: 1 << 30}}})
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Crash()
		rec.Start(now)
		// Close the segment file underneath the log: the append lands in
		// the bufio buffer without error, and the failure only surfaces in
		// the forced pre-send flush+fsync — exactly the path that must not
		// release the vote.
		rec.log.f.Close()
		eng.actions = batch()
		acts := rec.HandleMessage(1, voteMsg(2), now)
		if n := countSends(acts); n != 0 {
			t.Fatalf("%d own sends externalized after failed forced sync, want 0", n)
		}
		if rec.Err() == nil {
			t.Fatal("sync failure not sticky")
		}
	})
}

// TestRecorderReplayFiltersActions: replay must surface commits and
// safety faults to the host and drop sends/timers from rounds long past.
func TestRecorderReplayFiltersActions(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(100, 0)

	eng := &fakeEngine{}
	rec, err := NewRecorder(RecorderConfig{Dir: dir, Engine: eng,
		Options: Options{Sync: SyncPolicy{EveryRecord: true}}})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(now)
	eng.actions = []protocol.Action{protocol.Broadcast{Msg: voteMsg(7)}}
	rec.HandleMessage(1, voteMsg(7), now)
	rec.Crash()

	eng2 := &fakeEngine{}
	rec2, err := NewRecorder(RecorderConfig{Dir: dir, Engine: eng2,
		Options: Options{Sync: SyncPolicy{EveryRecord: true}}})
	if err != nil {
		t.Fatal(err)
	}
	defer rec2.Close()
	// The replayed own vote makes the engine emit one of each action
	// kind; only Commit may pass the filter (plus EndReplay's live
	// actions, which pass unfiltered).
	commit := protocol.Commit{Blocks: []*types.Block{types.Genesis()}, Explicit: protocol.FinalizeSlow}
	eng2.actions = []protocol.Action{
		protocol.Broadcast{Msg: voteMsg(7)},
		protocol.Send{To: 2, Msg: voteMsg(7)},
		protocol.SetTimer{ID: protocol.TimerID{Round: 7}},
		commit,
	}
	acts := rec2.Start(now)
	var commits, others int
	for _, a := range acts {
		if _, ok := a.(protocol.Commit); ok {
			commits++
		} else {
			others++
		}
	}
	if commits != 1 || others != 0 {
		t.Fatalf("replay actions = %d commits + %d others, want 1 + 0 (%v)", commits, others, acts)
	}
}
