package core

import (
	"slices"
	"testing"
	"time"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// deepPruned configures a rig whose engine retains only a small finalized
// window in memory — the post-checkpoint / deep-pruning server shape that
// makes a SyncRequest for early rounds unserveable.
func deepPruned(cfg *Config) {
	cfg.DeepPrune = true
	cfg.PruneKeep = 8
}

// newWindowServer builds a deep-pruned rig finalized through `rounds`
// rounds, so it holds only its last PruneKeep finalized blocks.
func newWindowServer(t *testing.T, rounds types.Round) *rig {
	t.Helper()
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.Leader(1), deepPruned)
	buildFinalizedChain(t, r, rounds)
	fin := r.eng.Tree().FinalizedRound()
	if fin < rounds-1 {
		t.Fatalf("setup: server finalized only %d rounds", fin)
	}
	if _, ok := r.eng.Tree().FinalizedAt(1); !ok {
		t.Fatal("setup: finalized IDs must survive deep pruning")
	}
	if id, _ := r.eng.Tree().FinalizedAt(1); r.eng.Tree().Contains(id) {
		t.Fatal("setup: server still holds round-1 block; deep prune did not run")
	}
	return r
}

// stallOnce fires the fresh replica's resend timer past the interval —
// exactly what a stuck replica does on its own. The interval is past the
// in-flight segment's 2Δ deadline, so the suffix class re-sends it to the
// next peer or, after stateSyncStalls requests, escalates.
func stallOnce(r *rig) {
	r.now = r.now.Add(r.eng.resendInterval() + time.Millisecond)
	r.acts = append(r.acts, r.eng.HandleTimer(
		protocol.TimerID{Round: r.eng.Round(), Kind: protocol.TimerResend}, r.now)...)
}

// TestSnapshotFetchRecoversFreshReplica: a fresh replica facing peers
// that hold only a finalized window cannot be served the prefix by
// suffix sync, and would re-request it forever. After stateSyncStalls
// prefix stalls it escalates to a snapshot fetch, adopts the server's
// window through the quorum-cert trust gate, commits it, and jumps to the
// live round.
func TestSnapshotFetchRecoversFreshReplica(t *testing.T) {
	server := newWindowServer(t, 30)
	serverFin := server.eng.Tree().FinalizedRound()
	set := genesisSet(t, p411)
	fresh := newRig(t, p411, set.ReplicaAt(1, 3))

	fresh.clearActs()
	fresh.deliver(server.eng.ID(), &types.CertMsg{Cert: server.eng.latestFinal})
	var snapReq *types.SnapshotRequest
	for i := 0; i < 10 && snapReq == nil; i++ {
		stallOnce(fresh)
		if reqs := sends[*types.SnapshotRequest](fresh); len(reqs) > 0 {
			snapReq = reqs[0].Msg.(*types.SnapshotRequest)
		}
	}
	if snapReq == nil {
		t.Fatal("unserveable prefix never escalated to a snapshot fetch")
	}
	if snapReq.Have != 0 {
		t.Fatalf("snapshot request Have=%d, want 0", snapReq.Have)
	}
	if got := fresh.eng.Metrics()["statesync_fetches"]; got < 1 {
		t.Fatalf("statesync_fetches = %d", got)
	}

	// Serve the fetch from the window server.
	server.clearActs()
	serveActs := server.eng.HandleMessage(fresh.eng.ID(), snapReq, server.now)
	var resp *types.SnapshotResponse
	for _, a := range serveActs {
		if s, ok := a.(protocol.Send); ok {
			if m, ok := s.Msg.(*types.SnapshotResponse); ok {
				if s.To != fresh.eng.ID() {
					t.Fatalf("snapshot sent to %d", s.To)
				}
				resp = m
			}
		}
	}
	if resp == nil {
		t.Fatal("window server did not serve the snapshot")
	}
	if got := server.eng.Metrics()["statesync_served"]; got != 1 {
		t.Fatalf("statesync_served = %d", got)
	}
	tip := resp.Chain[len(resp.Chain)-1]
	if tip.Round != serverFin || resp.Finalization == nil ||
		resp.Finalization.Round != tip.Round || resp.Finalization.Block != tip.ID() {
		t.Fatal("snapshot response is not anchored tip-exactly")
	}

	// Ingest: the fresh replica adopts the window, commits it, and jumps.
	fresh.clearActs()
	fresh.deliver(server.eng.ID(), resp)
	if fin := fresh.eng.Tree().FinalizedRound(); fin != serverFin {
		t.Fatalf("finalized round %d after snapshot, want %d", fin, serverFin)
	}
	if fresh.eng.Round() != serverFin+1 {
		t.Fatalf("round %d after snapshot, want %d", fresh.eng.Round(), serverFin+1)
	}
	total := 0
	for _, c := range fresh.commits() {
		total += len(c.Blocks)
	}
	if total != len(resp.Chain) {
		t.Fatalf("committed %d blocks, want the %d-block window", total, len(resp.Chain))
	}
	m := fresh.eng.Metrics()
	if m["statesync_bytes"] <= 0 || m["statesync_rejected"] != 0 {
		t.Fatalf("statesync metrics off: bytes=%d rejected=%d",
			m["statesync_bytes"], m["statesync_rejected"])
	}
	if fresh.eng.snapshots.Fetching() {
		t.Fatal("fetch not completed after adoption")
	}
}

// TestSnapshotRequestDeclinedWhenUseless: a server refuses to serve a
// requester at or ahead of its own window tip.
func TestSnapshotRequestDeclinedWhenUseless(t *testing.T) {
	server := newWindowServer(t, 30)
	fin := server.eng.Tree().FinalizedRound()
	for _, have := range []types.Round{fin, fin + 5} {
		for _, a := range server.eng.HandleMessage(3, &types.SnapshotRequest{Have: have}, server.now) {
			if _, ok := a.(protocol.Send); ok {
				t.Fatalf("served a snapshot to a requester with Have=%d (fin=%d)", have, fin)
			}
		}
	}
}

// TestUnsolicitedSnapshotResponseRejected: snapshot state only enters
// through an in-flight fetch (or WAL replay); a pushed response is
// dropped and counted.
func TestUnsolicitedSnapshotResponseRejected(t *testing.T) {
	server := newWindowServer(t, 30)
	serveActs := server.eng.HandleMessage(3, &types.SnapshotRequest{Have: 0}, server.now)
	resp := serveActs[0].(protocol.Send).Msg.(*types.SnapshotResponse)

	set := genesisSet(t, p411)
	fresh := newRig(t, p411, set.ReplicaAt(1, 3))
	fresh.deliver(server.eng.ID(), resp)
	if fin := fresh.eng.Tree().FinalizedRound(); fin != 0 {
		t.Fatalf("unsolicited snapshot adopted (fin=%d)", fin)
	}
	if got := fresh.eng.Metrics()["statesync_rejected"]; got != 1 {
		t.Fatalf("statesync_rejected = %d", got)
	}
}

// TestSnapshotResponseRejectsBadAnchor: while a fetch is in flight, a
// window whose certificate does not name the tip exactly — or whose
// chain was tampered with, or any window the checkpoint entrance refuses
// (badWindows) — is rejected without adoption, and the fetch stays live
// for the next peer.
func TestSnapshotResponseRejectsBadAnchor(t *testing.T) {
	server := newWindowServer(t, 30)
	serveActs := server.eng.HandleMessage(3, &types.SnapshotRequest{Have: 0}, server.now)
	good := serveActs[0].(protocol.Send).Msg.(*types.SnapshotResponse)

	set := genesisSet(t, p411)
	fresh := newRig(t, p411, set.ReplicaAt(1, 3))
	fresh.deliver(server.eng.ID(), &types.CertMsg{Cert: server.eng.latestFinal})
	for i := 0; i < 10 && !fresh.eng.snapshots.Fetching(); i++ {
		stallOnce(fresh)
	}
	if !fresh.eng.snapshots.Fetching() {
		t.Fatal("setup: fetch never started")
	}

	// Certificate anchored above (not at) the tip: refused.
	short := &types.SnapshotResponse{Chain: good.Chain[:len(good.Chain)-1], Finalization: good.Finalization}
	fresh.deliver(server.eng.ID(), short)
	// Tampered chain: parent break.
	broken := &types.SnapshotResponse{
		Chain:        []*types.Block{good.Chain[0], good.Chain[2]},
		Finalization: good.Finalization,
	}
	fresh.deliver(server.eng.ID(), broken)
	if fin := fresh.eng.Tree().FinalizedRound(); fin != 0 {
		t.Fatalf("bad snapshot adopted (fin=%d)", fin)
	}
	if got := fresh.eng.Metrics()["statesync_rejected"]; got != 2 {
		t.Fatalf("statesync_rejected = %d, want 2", got)
	}
	rejected := int64(2)
	for _, bad := range badWindows(server, good) {
		fresh.deliver(server.eng.ID(), bad.w)
		rejected++
		if got := fresh.eng.Metrics()["statesync_rejected"]; got != rejected {
			t.Fatalf("%s: statesync_rejected = %d, want %d", bad.name, got, rejected)
		}
		if fin, epochs := fresh.eng.Tree().FinalizedRound(), fresh.eng.History().Len(); fin != 0 || epochs != 1 {
			t.Fatalf("%s: refused window left finalized round %d, %d epochs", bad.name, fin, epochs)
		}
	}
	if !fresh.eng.snapshots.Fetching() {
		t.Fatal("fetch abandoned after a bad response; it must await the retry timer")
	}

	// The genuine window still lands afterwards.
	fresh.deliver(server.eng.ID(), good)
	if fin := fresh.eng.Tree().FinalizedRound(); fin != server.eng.Tree().FinalizedRound() {
		t.Fatalf("good snapshot not adopted after bad ones (fin=%d)", fin)
	}
}

// TestSnapshotFetchRotatesPeerOnTimeout: a silent peer costs one
// snapshot timeout (8Δ), after which the fetcher re-sends to the next peer.
func TestSnapshotFetchRotatesPeerOnTimeout(t *testing.T) {
	server := newWindowServer(t, 30)
	set := genesisSet(t, p411)
	fresh := newRig(t, p411, set.ReplicaAt(1, 3))
	fresh.deliver(server.eng.ID(), &types.CertMsg{Cert: server.eng.latestFinal})
	for i := 0; i < 10 && !fresh.eng.snapshots.Fetching(); i++ {
		stallOnce(fresh)
	}
	first := sends[*types.SnapshotRequest](fresh)
	if len(first) == 0 {
		t.Fatal("setup: no snapshot request sent")
	}
	firstPeer := first[len(first)-1].To

	// Before the deadline: the timer fire re-arms without resending.
	fresh.clearActs()
	fresh.now = fresh.now.Add(time.Millisecond)
	fresh.acts = slices.Clone(fresh.eng.HandleTimer(protocol.TimerID{Kind: protocol.TimerStateSync}, fresh.now))
	if len(sends[*types.SnapshotRequest](fresh)) != 0 {
		t.Fatal("resent before the per-peer deadline")
	}

	// Past the deadline: rotate to the next peer.
	fresh.clearActs()
	fresh.now = fresh.now.Add(8 * rigDelta)
	fresh.acts = slices.Clone(fresh.eng.HandleTimer(protocol.TimerID{Kind: protocol.TimerStateSync}, fresh.now))
	retries := sends[*types.SnapshotRequest](fresh)
	if len(retries) != 1 {
		t.Fatalf("expected one retry, got %d", len(retries))
	}
	if retries[0].To == firstPeer || retries[0].To == fresh.eng.ID() {
		t.Fatalf("retry went to %d (first was %d)", retries[0].To, firstPeer)
	}
	rearmed := false
	for _, a := range fresh.acts {
		if st, ok := a.(protocol.SetTimer); ok && st.ID.Kind == protocol.TimerStateSync {
			rearmed = true
		}
	}
	if !rearmed {
		t.Fatal("state-sync timer not re-armed after retry")
	}
}
