package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// buildFinalizedChain drives the rig's engine through `rounds` fast
// rounds, returning the blocks in order. The engine under test is the
// observer whose chain state we then use to serve or request syncs.
func buildFinalizedChain(t *testing.T, r *rig, rounds types.Round) []*types.Block {
	t.Helper()
	return buildFinalizedChainOf(t, r, rounds, func(round types.Round, parent types.BlockID) *types.Block {
		return r.leaderBlock(round, parent, byte(round))
	})
}

// buildFinalizedChainOf is buildFinalizedChain with the peers' blocks
// built by block; the engine's own come from its payload source.
func buildFinalizedChainOf(t *testing.T, r *rig, rounds types.Round, block func(types.Round, types.BlockID) *types.Block) []*types.Block {
	t.Helper()
	var chain []*types.Block
	parent := types.Genesis().ID()
	for round := types.Round(1); round <= rounds; round++ {
		roundLeader := r.set.Leader(round)
		var b *types.Block
		if roundLeader == r.eng.ID() {
			rs := r.eng.getRound(round)
			for _, r := range rs.byID {
				if r.block != nil {
					b = r.block
				}
			}
			if b == nil {
				t.Fatalf("round %d: engine leads but proposed nothing", round)
			}
		} else {
			b = block(round, parent)
			r.deliver(roundLeader, r.proposalFor(b))
		}
		for peer := types.ReplicaID(0); int(peer) < r.params.N; peer++ {
			if peer == r.eng.ID() || peer == roundLeader {
				continue
			}
			r.deliver(peer, &types.VoteMsg{Votes: []types.Vote{
				r.fastVote(peer, b), r.notarVote(peer, b),
			}})
		}
		chain = append(chain, b)
		parent = b.ID()
	}
	return chain
}

// TestSyncRequestServesFinalizedChain: a replica with a finalized prefix
// answers SyncRequests with the chain segment and its latest finalization
// certificate.
func TestSyncRequestServesFinalizedChain(t *testing.T) {
	set := genesisSet(t, p411)
	leader := set.Leader(1)
	r := newRig(t, p411, leader)
	chain := buildFinalizedChain(t, r, 10)
	if r.eng.Tree().FinalizedRound() < 9 {
		t.Fatalf("setup: finalized only %d rounds", r.eng.Tree().FinalizedRound())
	}

	r.clearActs()
	r.deliver(2, &types.SyncRequest{From: 3, To: 7})
	var resp *types.SyncResponse
	for _, a := range r.acts {
		if s, ok := a.(protocol.Send); ok {
			if m, ok := s.Msg.(*types.SyncResponse); ok {
				if s.To != 2 {
					t.Fatalf("response sent to %d, want 2", s.To)
				}
				resp = m
			}
		}
	}
	if resp == nil {
		t.Fatal("no sync response")
	}
	if len(resp.Blocks) != 5 {
		t.Fatalf("response has %d blocks, want 5 (rounds 3..7)", len(resp.Blocks))
	}
	for i, b := range resp.Blocks {
		if !b.Equal(chain[i+2]) {
			t.Fatalf("response block %d is not the finalized round-%d block", i, i+3)
		}
	}
	if resp.Finalization == nil || resp.Finalization.Round < 7 {
		t.Fatalf("response certificate %v does not cover the segment", resp.Finalization)
	}

	// A request beyond the finalized prefix yields nothing.
	r.clearActs()
	r.deliver(2, &types.SyncRequest{From: 100, To: 120})
	for _, a := range r.acts {
		if _, ok := a.(protocol.Send); ok {
			t.Fatal("responded to a request beyond the finalized prefix")
		}
	}
}

// TestPrunedReplicaServesSuffixSync: after 200 rounds at PruneKeep 4,
// round 1 has long left either replica's prune window. A shallow-pruned
// replica still answers a SyncRequest for rounds 1..10 with the original
// blocks, from its finalized log; a deep-pruned one has dropped their
// bodies and serves none (its peers that far behind take a snapshot).
func TestPrunedReplicaServesSuffixSync(t *testing.T) {
	for _, deep := range []bool{false, true} {
		t.Run(fmt.Sprintf("deep=%v", deep), func(t *testing.T) {
			set := genesisSet(t, p411)
			r := newRig(t, p411, set.Leader(1), func(c *Config) {
				c.PruneKeep = 4
				c.DeepPrune = deep
			})
			chain := buildFinalizedChain(t, r, 200)
			if fin := r.eng.Tree().FinalizedRound(); fin < 190 {
				t.Fatalf("setup: finalized only %d rounds", fin)
			}
			if r.eng.Tree().Contains(chain[0].ID()) {
				t.Fatal("setup: round 1 is still in the prune window")
			}
			r.clearActs()
			r.deliver(2, &types.SyncRequest{From: 1, To: 10})
			resp := sends[*types.SyncResponse](r)
			if deep {
				if len(resp) != 0 {
					t.Fatal("a deep-pruned replica served rounds below its window")
				}
				return
			}
			if len(resp) != 1 {
				t.Fatalf("%d sync responses, want 1", len(resp))
			}
			blocks := resp[0].Msg.(*types.SyncResponse).Blocks
			if len(blocks) != 10 {
				t.Fatalf("response has %d blocks, want 10 (rounds 1..10)", len(blocks))
			}
			for i, b := range blocks {
				if b != chain[i] {
					t.Fatalf("response block %d is not the original round-%d block", i, i+1)
				}
			}
		})
	}
}

// TestSyncResponseFitsOneFrame: with 1 MiB blocks, 32 finalized rounds
// encode to more than types.MaxFrame, a frame the requester's transport
// would refuse. The responder stops within the bound, and the requester's
// next request, from the round after the last block served, continues
// the chain.
func TestSyncResponseFitsOneFrame(t *testing.T) {
	body := types.BytesPayload(make([]byte, 1<<20))
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.Leader(1), func(c *Config) {
		c.Payloads = protocol.PayloadFunc(func(types.Round) types.Payload { return body })
	})
	chain := buildFinalizedChainOf(t, r, 34, func(round types.Round, parent types.BlockID) *types.Block {
		leader := r.set.Leader(round)
		b := types.NewBlock(round, leader, 0, parent, body)
		if err := r.signers[leader].SignBlock(b); err != nil {
			t.Fatal(err)
		}
		return b
	})
	if fin := r.eng.Tree().FinalizedRound(); fin < 32 {
		t.Fatalf("setup: finalized only %d rounds", fin)
	}
	whole := &types.SyncResponse{Blocks: chain[:32], Finalization: r.eng.latestFinal}
	if types.EncodedSize(whole) <= types.MaxFrame {
		t.Fatalf("setup: 32 blocks encode to %d bytes, within the %d-byte frame", types.EncodedSize(whole), types.MaxFrame)
	}

	served := types.Round(0)
	for served < 32 {
		r.clearActs()
		r.deliver(2, &types.SyncRequest{From: served + 1, To: 32})
		var resp *types.SyncResponse
		for _, a := range r.acts {
			if s, ok := a.(protocol.Send); ok {
				if m, ok := s.Msg.(*types.SyncResponse); ok {
					resp = m
				}
			}
		}
		if resp == nil || len(resp.Blocks) == 0 {
			t.Fatalf("no sync response from round %d", served+1)
		}
		if size := types.EncodedSize(resp); size > types.MaxFrame {
			t.Fatalf("response from round %d: %d blocks encode to %d bytes, over the %d-byte frame",
				served+1, len(resp.Blocks), size, types.MaxFrame)
		}
		for _, b := range resp.Blocks {
			if !b.Equal(chain[served]) {
				t.Fatalf("response block for round %d is not the finalized one", served+1)
			}
			served++
		}
	}
}

// TestLaggingReplicaCatchesUpViaSync: a fresh engine receiving only a
// far-ahead finalization certificate requests a sync, ingests the
// response, commits the chain and jumps its round forward.
func TestLaggingReplicaCatchesUpViaSync(t *testing.T) {
	set := genesisSet(t, p411)
	leader := set.Leader(1)
	full := newRig(t, p411, leader)
	buildFinalizedChain(t, full, 10)
	fullEng := full.eng

	// The lagging replica: a different rig sharing the same cluster keys.
	lag := newRig(t, p411, set.ReplicaAt(1, 3))
	if lag.eng.Round() != 1 {
		t.Fatal("setup: lagging replica should start at round 1")
	}

	// Deliver the full replica's latest finalization certificate.
	if fullEng.latestFinal == nil {
		t.Fatal("setup: full replica has no finalization certificate")
	}
	lag.clearActs()
	lag.deliver(leader, &types.CertMsg{Cert: fullEng.latestFinal})
	if n := len(broadcasts[*types.SyncRequest](lag)); n != 0 {
		t.Fatalf("sync request broadcast %d times; catch-up must be unicast", n)
	}
	reqs := sends[*types.SyncRequest](lag)
	if len(reqs) != 1 {
		t.Fatal("lagging replica did not request a sync")
	}
	if reqs[0].To == lag.eng.ID() {
		t.Fatal("sync request sent to self")
	}
	req := reqs[0].Msg.(*types.SyncRequest)
	if req.From != 1 {
		t.Fatalf("sync request From = %d, want 1", req.From)
	}

	// Serve it from the full replica and feed the response back.
	respActs := fullEng.HandleMessage(lag.eng.ID(), req, full.now)
	var resp *types.SyncResponse
	for _, a := range respActs {
		if s, ok := a.(protocol.Send); ok {
			if m, ok := s.Msg.(*types.SyncResponse); ok {
				resp = m
			}
		}
	}
	if resp == nil {
		t.Fatal("full replica did not serve the sync")
	}
	lag.deliver(leader, resp)

	if fin := lag.eng.Tree().FinalizedRound(); fin < 9 {
		t.Fatalf("lagging replica finalized only %d rounds after sync", fin)
	}
	if lag.eng.Round() <= 9 {
		t.Fatalf("lagging replica did not jump rounds: at %d", lag.eng.Round())
	}
	commits := lag.commits()
	total := 0
	for _, c := range commits {
		total += len(c.Blocks)
	}
	if total < 9 {
		t.Fatalf("lagging replica committed %d blocks via sync", total)
	}
}

// TestSuffixSyncRotatesPeerOnTimeout: a silent peer costs one suffix
// timeout (2Δ), after which the class timer alone — no inbound message,
// no resend timer — re-sends the same segment to the next ring peer.
func TestSuffixSyncRotatesPeerOnTimeout(t *testing.T) {
	set := genesisSet(t, p411)
	full := newRig(t, p411, set.Leader(1))
	buildFinalizedChain(t, full, 10)
	lag := newRig(t, p411, set.ReplicaAt(1, 3))
	lag.clearActs()
	lag.deliver(full.eng.ID(), &types.CertMsg{Cert: full.eng.latestFinal})
	first := sends[*types.SyncRequest](lag)
	if len(first) != 1 {
		t.Fatalf("setup: %d sync requests, want 1", len(first))
	}
	var timer *protocol.SetTimer
	for _, a := range lag.acts {
		if st, ok := a.(protocol.SetTimer); ok && st.ID.Kind == protocol.TimerSuffixSync {
			timer = &st
		}
	}
	if timer == nil || !timer.At.Equal(lag.now.Add(2*rigDelta)) {
		t.Fatalf("suffix request armed %v, want a timer 2Δ out", timer)
	}

	// Before the deadline: the timer fire re-arms without resending.
	lag.clearActs()
	lag.now = lag.now.Add(time.Millisecond)
	lag.acts = slices.Clone(lag.eng.HandleTimer(timer.ID, lag.now))
	if len(sends[*types.SyncRequest](lag)) != 0 {
		t.Fatal("resent before the per-peer deadline")
	}

	// At the deadline: the same segment goes to the next peer.
	lag.clearActs()
	lag.now = timer.At
	lag.acts = slices.Clone(lag.eng.HandleTimer(timer.ID, lag.now))
	retries := sends[*types.SyncRequest](lag)
	if len(retries) != 1 {
		t.Fatalf("expected one retry, got %d", len(retries))
	}
	if retries[0].To == first[0].To || retries[0].To == lag.eng.ID() {
		t.Fatalf("retry went to %d (first was %d)", retries[0].To, first[0].To)
	}
	if got, want := *retries[0].Msg.(*types.SyncRequest), *first[0].Msg.(*types.SyncRequest); got != want {
		t.Fatalf("retry asked for %+v, want the same segment %+v", got, want)
	}
	rearmed := false
	for _, a := range lag.acts {
		if st, ok := a.(protocol.SetTimer); ok && st.ID.Kind == protocol.TimerSuffixSync {
			rearmed = st.At.Equal(lag.now.Add(2 * rigDelta))
		}
	}
	if !rearmed {
		t.Fatal("suffix timer not re-armed 2Δ after the retry")
	}
}

// TestSyncResponseRejectsDisconnectedSegment: blocks that do not connect
// to the local tree are dropped and do not advance the high-water mark.
func TestSyncResponseRejectsDisconnectedSegment(t *testing.T) {
	set := genesisSet(t, p411)
	r := newRig(t, p411, set.ReplicaAt(1, 3))
	// A block whose parent is unknown garbage.
	orphan := types.NewBlock(5, set.Leader(5), 0, types.BlockID{9, 9}, types.Payload{})
	if err := r.signers[orphan.Proposer].SignBlock(orphan); err != nil {
		t.Fatal(err)
	}
	r.deliver(1, &types.SyncResponse{Blocks: []*types.Block{orphan}})
	if r.eng.syncHigh != 0 {
		t.Fatalf("syncHigh advanced to %d on a disconnected segment", r.eng.syncHigh)
	}
	if r.eng.Tree().Contains(orphan.ID()) {
		t.Fatal("disconnected block stored")
	}
}

// TestResendAfterStall: a replica stuck in a round rebroadcasts its votes
// and the header of its best block after the resend interval, repeatedly.
func TestResendAfterStall(t *testing.T) {
	set := genesisSet(t, p411)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, p411, observer)
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b.Proposer, r.proposalFor(b))
	// No further traffic: after the resend interval the engine must
	// rebroadcast its vote (one fast vote) and relay the block's header.
	r.clearActs()
	interval := r.eng.resendInterval()
	r.now = r.now.Add(interval + time.Millisecond)
	r.acts = append(r.acts, r.eng.HandleTimer(
		protocol.TimerID{Round: 1, Kind: protocol.TimerResend}, r.now)...)

	var votes []types.Vote
	for _, vm := range broadcasts[*types.VoteMsg](r) {
		votes = append(votes, vm.Votes...)
	}
	if len(votes) != 1 || votes[0].Kind != types.VoteFast || votes[0].Block != b.ID() {
		t.Fatalf("resend broadcast %v, want the round's one fast vote", votes)
	}
	relays := 0
	for _, p := range broadcasts[*types.Proposal](r) {
		if p.Relayed && p.Block == nil && p.Header.ID() == b.ID() {
			relays++
		}
	}
	if relays < 1 {
		t.Fatal("resend did not relay the best known block's header")
	}
	if n := len(broadcasts[*types.SyncRequest](r)); n != 0 {
		t.Fatalf("resend broadcast %d sync requests; the probe must be unicast", n)
	}
	if len(sends[*types.SyncRequest](r)) != 1 {
		t.Fatal("resend did not probe for missed finalizations")
	}
	// The timer re-arms itself.
	rearmed := false
	for _, a := range r.acts {
		if st, ok := a.(protocol.SetTimer); ok && st.ID.Kind == protocol.TimerResend {
			rearmed = true
		}
	}
	if !rearmed {
		t.Fatal("resend timer not re-armed")
	}
	if r.eng.Metrics()["resends"] != 1 {
		t.Fatalf("resends metric = %d", r.eng.Metrics()["resends"])
	}

	// Nothing proves this replica behind, so each probe is dropped at its
	// deadline: never re-sent, never escalated, however many resend
	// timers probe again.
	for i := 0; i <= stateSyncStalls; i++ {
		if i > 0 {
			r.clearActs()
			r.now = r.now.Add(interval)
			r.acts = slices.Clone(r.eng.HandleTimer(protocol.TimerID{Round: 1, Kind: protocol.TimerResend}, r.now))
			if len(sends[*types.SyncRequest](r)) != 1 {
				t.Fatalf("resend %d did not probe", i+1)
			}
		}
		r.clearActs()
		r.now = r.now.Add(2 * rigDelta)
		r.acts = slices.Clone(r.eng.HandleTimer(protocol.TimerID{Kind: protocol.TimerSuffixSync}, r.now))
		if n := len(sends[*types.SyncRequest](r)); n != 0 {
			t.Fatalf("probe %d re-sent %d times at its deadline", i+1, n)
		}
		if len(sends[*types.SnapshotRequest](r)) != 0 {
			t.Fatalf("probe %d escalated to a snapshot fetch", i+1)
		}
		if !r.eng.segments.Idle() {
			t.Fatalf("probe %d still held after its deadline", i+1)
		}
	}

	// A stale resend fire (old round) does nothing.
	r.clearActs()
	r.acts = slices.Clone(r.eng.HandleTimer(protocol.TimerID{Round: 0, Kind: protocol.TimerResend}, r.now))
	if len(broadcasts[*types.VoteMsg](r)) != 0 {
		t.Fatal("stale resend timer rebroadcast votes")
	}
}

// TestFastFinalCertForUnknownBlockDefersRankCheck: a fast-finalization
// certificate for a block we have not received is accepted provisionally;
// the commit happens once the block arrives (and its rank is checked
// against the certificate's premise by validity at that point).
func TestFastFinalCertForUnknownBlock(t *testing.T) {
	set := genesisSet(t, p411)
	observer := set.ReplicaAt(1, 3)
	r := newRig(t, p411, observer)
	b := r.leaderBlock(1, types.Genesis().ID(), 1)
	var votes []types.Vote
	for _, peer := range []types.ReplicaID{0, 1, 2} {
		votes = append(votes, r.fastVote(peer, b))
	}
	cert, err := types.NewCertificate(types.CertFastFinalization, 1, b.ID(), votes)
	if err != nil {
		t.Fatal(err)
	}
	r.deliver(0, &types.CertMsg{Cert: cert})
	if len(r.commits()) != 0 {
		t.Fatal("committed without the block")
	}
	// The block arrives: the certificate applies.
	r.deliver(b.Proposer, r.proposalFor(b))
	commits := r.commits()
	if len(commits) != 1 || !commits[0].Blocks[0].Equal(b) {
		t.Fatalf("commits after block arrival: %v", commits)
	}
}
