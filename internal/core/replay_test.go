package core

import (
	"testing"
	"time"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// replayRig builds a second engine with the same identity/config as r's,
// for replaying the first engine's journal into.
func replayRig(t *testing.T, r *rig, opts ...func(*Config)) *Engine {
	t.Helper()
	cfg := Config{
		Params:  r.params,
		Self:    r.eng.cfg.Self,
		Keyring: r.keyring,
		Signer:  r.signers[r.eng.cfg.Self],
		Delta:   rigDelta,
	}
	for _, o := range opts {
		o(&cfg)
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// ownBroadcasts extracts the messages a recorder would journal as
// KindOwn from the rig's accumulated actions.
func ownBroadcasts(r *rig) []types.Message {
	var out []types.Message
	for _, a := range r.acts {
		if b, ok := a.(protocol.Broadcast); ok {
			switch b.Msg.(type) {
			case *types.SyncRequest, *types.SyncResponse:
			default:
				out = append(out, b.Msg)
			}
		}
	}
	return out
}

func countSigning(acts []protocol.Action) (votes, proposals int) {
	for _, a := range acts {
		b, ok := a.(protocol.Broadcast)
		if !ok {
			continue
		}
		switch m := b.Msg.(type) {
		case *types.VoteMsg:
			votes++
		case *types.Proposal:
			if !m.Relayed {
				proposals++
			}
		}
	}
	return
}

// TestReplayRestoresVotingRecord: after replaying the journal, the
// engine must not re-issue the votes it already cast — re-deciding a
// round with post-crash timing is how a restarted replica equivocates.
func TestReplayRestoresVotingRecord(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(1, 1) // non-leader in round 1
	r := newRig(t, p411, self)
	blockA := r.leaderBlock(1, r.eng.Tree().Genesis().ID(), 'a')
	r.deliver(blockA.Proposer, r.proposalFor(blockA))
	voted := broadcasts[*types.VoteMsg](r)
	if len(voted) != 1 {
		t.Fatalf("first life broadcast %d vote messages, want 1", len(voted))
	}

	// Second life: replay the journal a recorder would have kept —
	// the inbound proposal, then the replica's own vote message.
	now := time.Unix(10, 0)
	eng2 := replayRig(t, r)
	eng2.BeginReplay()
	var acts []protocol.Action
	acts = append(acts, eng2.Start(now)...)
	acts = append(acts, eng2.HandleMessage(blockA.Proposer, r.proposalFor(blockA), now)...)
	acts = append(acts, eng2.ReplayOwn(voted[0], now)...)
	if v, p := countSigning(acts); v != 0 || p != 0 {
		t.Fatalf("replay mode created signatures: %d vote msgs, %d proposals", v, p)
	}
	acts = eng2.EndReplay(now)
	if v, _ := countSigning(acts); v != 0 {
		t.Fatalf("engine re-voted after replay: %d vote messages", v)
	}

	rs := eng2.rounds[1]
	if rs == nil || !rs.peek(blockA.ID()).notarVoted || !rs.fastVoteSent {
		t.Fatal("replay did not restore the voting record")
	}
	if rs.set(types.VoteFast, blockA.ID()).count() == 0 {
		t.Fatal("replayed own fast vote missing from the ledger")
	}
}

// TestReplayDoesNotReproposeWithNewPayload: the round leader crashed
// after proposing; on replay it must adopt the journaled block instead
// of signing a second, different proposal for the same round.
func TestReplayDoesNotReproposeWithNewPayload(t *testing.T) {
	set := genesisSet(t, p411)
	leader := set.Leader(1)
	r := newRig(t, p411, leader, func(c *Config) {
		c.Payloads = protocol.PayloadFunc(func(types.Round) types.Payload {
			return types.BytesPayload([]byte("pre-crash"))
		})
	})
	props := broadcasts[*types.Proposal](r)
	if len(props) != 1 {
		t.Fatalf("leader broadcast %d proposals, want 1", len(props))
	}

	// The restarted process has a different mempool state.
	now := time.Unix(10, 0)
	eng2 := replayRig(t, r, func(c *Config) {
		c.Payloads = protocol.PayloadFunc(func(types.Round) types.Payload {
			return types.BytesPayload([]byte("post-crash, different"))
		})
	})
	eng2.BeginReplay()
	var acts []protocol.Action
	acts = append(acts, eng2.Start(now)...)
	acts = append(acts, eng2.ReplayOwn(props[0], now)...)
	acts = append(acts, eng2.EndReplay(now)...)
	if _, p := countSigning(acts); p != 0 {
		t.Fatal("replay re-proposed — the restarted leader would equivocate")
	}
	rs := eng2.rounds[1]
	if rs == nil || !rs.proposed {
		t.Fatal("replay did not restore the proposed flag")
	}
	if !rs.peek(props[0].Block.ID()).valid {
		t.Fatal("replayed own block not marked valid")
	}
	if !rs.fastVoteSent {
		t.Fatal("the journaled proposal's fast vote must restore fastVoteSent")
	}
}

// TestReplayRecommitsAndAdvances: a journal covering a fast-finalized
// round must re-derive the commit and leave the engine in the next
// round, exactly where it crashed.
func TestReplayRecommitsAndAdvances(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(1, 1)
	r := newRig(t, p411, self)
	blockA := r.leaderBlock(1, r.eng.Tree().Genesis().ID(), 'a')
	inboundProposal := r.proposalFor(blockA)
	r.deliver(blockA.Proposer, inboundProposal)
	// Fast votes from the two remaining replicas complete the n-p = 3
	// quorum (proposer's came with the proposal, ours with our vote).
	var rest []types.ReplicaID
	for i := 0; i < 4; i++ {
		if id := types.ReplicaID(i); id != self && id != blockA.Proposer {
			rest = append(rest, id)
		}
	}
	inboundVotes := &types.VoteMsg{Votes: []types.Vote{r.fastVote(rest[0], blockA)}}
	r.deliver(rest[0], inboundVotes)
	if len(r.commits()) == 0 {
		t.Fatal("first life did not fast-finalize")
	}
	if r.eng.Round() != 2 {
		t.Fatalf("first life in round %d, want 2", r.eng.Round())
	}
	journalOwn := ownBroadcasts(r)

	// Second life: inbound records first (as arrival order had them),
	// own records after — the recorder preserves true interleaving, but
	// replay must converge regardless because ingestion is commutative
	// up to the progress fixpoint.
	now := time.Unix(10, 0)
	eng2 := replayRig(t, r)
	eng2.BeginReplay()
	var acts []protocol.Action
	acts = append(acts, eng2.Start(now)...)
	acts = append(acts, eng2.HandleMessage(blockA.Proposer, inboundProposal, now)...)
	for _, m := range journalOwn {
		acts = append(acts, eng2.ReplayOwn(m, now)...)
	}
	acts = append(acts, eng2.HandleMessage(rest[0], inboundVotes, now)...)
	acts = append(acts, eng2.EndReplay(now)...)

	var committed int
	for _, a := range acts {
		if c, ok := a.(protocol.Commit); ok {
			for _, b := range c.Blocks {
				if b.ID() != blockA.ID() {
					t.Fatalf("replay committed unexpected block %s", b.ID())
				}
				committed++
			}
		}
	}
	if committed != 1 {
		t.Fatalf("replay committed %d blocks, want 1", committed)
	}
	if eng2.Round() != 2 {
		t.Fatalf("replayed engine in round %d, want 2", eng2.Round())
	}
	if v, p := countSigning(acts); v != 0 || p != 0 {
		t.Fatalf("replay created signatures: %d vote msgs, %d proposals", v, p)
	}
	if eng2.Tree().FinalizedRound() != 1 {
		t.Fatalf("finalized round = %d, want 1", eng2.Tree().FinalizedRound())
	}
}
