package byzantine

import (
	"testing"
	"time"

	"banyan/internal/crypto"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// scriptedEngine is a fake inner engine that returns canned actions from
// every entry point, so tests can observe exactly how an adversary wrapper
// rewrites them.
type scriptedEngine struct {
	id   types.ReplicaID
	acts []protocol.Action
}

func (s *scriptedEngine) ID() types.ReplicaID               { return s.id }
func (s *scriptedEngine) Protocol() string                  { return "scripted" }
func (s *scriptedEngine) Metrics() map[string]int64         { return map[string]int64{"x": 1} }
func (s *scriptedEngine) Start(time.Time) []protocol.Action { return s.acts }
func (s *scriptedEngine) HandleMessage(types.ReplicaID, types.Message, time.Time) []protocol.Action {
	return s.acts
}
func (s *scriptedEngine) HandleTimer(protocol.TimerID, time.Time) []protocol.Action {
	return s.acts
}

func signedProposal(t *testing.T, signer *crypto.Signer, rank types.Rank, withFastVote bool) *types.Proposal {
	t.Helper()
	b := types.NewBlock(1, signer.ID(), rank, types.BlockID{}, types.SyntheticPayload(64, 42))
	if err := signer.SignBlock(b); err != nil {
		t.Fatal(err)
	}
	p := &types.Proposal{Block: b}
	if withFastVote {
		fv := signer.SignVote(types.VoteFast, b.Round, b.ID())
		p.FastVote = &fv
	}
	return p
}

func TestEquivocatingLeaderSplitsOwnProposal(t *testing.T) {
	const n = 5
	keyring, signers := crypto.GenerateCluster(crypto.Ed25519(), n, 1)
	self := signers[0]
	prop := signedProposal(t, self, 0, true)
	inner := &scriptedEngine{id: 0, acts: []protocol.Action{protocol.Broadcast{Msg: prop}}}
	adv := NewEquivocatingLeader(inner, self, n)

	acts := adv.Start(time.Unix(0, 0))

	// The broadcast must be rewritten into per-recipient sends only.
	sends := make(map[types.ReplicaID][]types.Message)
	for _, a := range acts {
		switch act := a.(type) {
		case protocol.Broadcast:
			t.Fatalf("own proposal escaped as a broadcast: %v", act.Msg)
		case protocol.Send:
			if act.To == adv.ID() {
				t.Fatal("adversary sent to itself")
			}
			sends[act.To] = append(sends[act.To], act.Msg)
		}
	}
	if len(sends) != n-1 {
		t.Fatalf("split reached %d recipients, want %d", len(sends), n-1)
	}

	// Each recipient gets exactly one of two conflicting, validly signed
	// blocks with the same round/rank/parent.
	blockIDs := make(map[types.BlockID]bool)
	for to, msgs := range sends {
		p, ok := msgs[0].(*types.Proposal)
		if !ok {
			t.Fatalf("first message to %d is %T, want *Proposal", to, msgs[0])
		}
		b := p.Block
		if b.Round != prop.Block.Round || b.Rank != prop.Block.Rank || b.Parent != prop.Block.Parent {
			t.Fatalf("twin header diverges beyond the payload: %v", b)
		}
		if err := crypto.VerifyBlock(keyring, b); err != nil {
			t.Fatalf("equivocated block to %d is not validly signed: %v", to, err)
		}
		if p.FastVote == nil {
			t.Fatalf("proposal to %d lost the leader's fast vote", to)
		}
		if p.FastVote.Block != b.ID() {
			t.Fatalf("fast vote to %d names %s, not the delivered block %s", to, p.FastVote.Block, b.ID())
		}
		if err := crypto.VerifyVote(keyring, *p.FastVote); err != nil {
			t.Fatalf("equivocated fast vote to %d does not verify: %v", to, err)
		}
		blockIDs[b.ID()] = true
	}
	if len(blockIDs) != 2 {
		t.Fatalf("split produced %d distinct blocks, want 2 conflicting", len(blockIDs))
	}
}

func TestEquivocatingLeaderPassesThroughForeignActions(t *testing.T) {
	const n = 4
	_, signers := crypto.GenerateCluster(crypto.Ed25519(), n, 2)
	self, other := signers[1], signers[2]
	foreign := signedProposal(t, other, 1, false)
	relayed := signedProposal(t, self, 0, false)
	relayed.Relayed = true
	vote := self.SignVote(types.VoteNotarize, 1, types.BlockID{})
	inner := &scriptedEngine{id: 1, acts: []protocol.Action{
		protocol.Broadcast{Msg: foreign},                                   // someone else's block
		protocol.Broadcast{Msg: relayed},                                   // own block, but a relay
		protocol.Broadcast{Msg: &types.VoteMsg{Votes: []types.Vote{vote}}}, // not a proposal
		protocol.SetTimer{ID: protocol.TimerID{Round: 1}},                  // not a network action
	}}
	adv := NewEquivocatingLeader(inner, self, n)
	acts := adv.HandleTimer(protocol.TimerID{}, time.Unix(0, 0))
	if len(acts) != len(inner.acts) {
		t.Fatalf("pass-through rewrote %d actions into %d", len(inner.acts), len(acts))
	}
	for i := range acts {
		if acts[i] != inner.acts[i] {
			t.Fatalf("action %d rewritten: %v -> %v", i, inner.acts[i], acts[i])
		}
	}
}

func TestSilentGoesMuteAfterDeadline(t *testing.T) {
	_, signers := crypto.GenerateCluster(crypto.HMAC(), 4, 3)
	prop := signedProposal(t, signers[0], 0, false)
	inner := &scriptedEngine{id: 0, acts: []protocol.Action{
		protocol.Broadcast{Msg: prop},
		protocol.Send{To: 2, Msg: prop},
		protocol.SetTimer{ID: protocol.TimerID{Round: 1}},
	}}
	cutoff := time.Unix(100, 0)
	s := NewSilent(inner, cutoff)

	before := s.HandleMessage(1, prop, cutoff.Add(-time.Second))
	if len(before) != 3 {
		t.Fatalf("before the deadline %d actions survived, want all 3", len(before))
	}
	after := s.HandleMessage(1, prop, cutoff)
	if len(after) != 1 {
		t.Fatalf("after the deadline %d actions survived, want only the timer", len(after))
	}
	if _, ok := after[0].(protocol.SetTimer); !ok {
		t.Fatalf("surviving action is %T, want SetTimer (mute replicas keep internal timers)", after[0])
	}
}

func TestVoteWithholderStripsFastAndFinalizationVotes(t *testing.T) {
	_, signers := crypto.GenerateCluster(crypto.HMAC(), 4, 4)
	self := signers[0]
	notar := self.SignVote(types.VoteNotarize, 1, types.BlockID{})
	fast := self.SignVote(types.VoteFast, 1, types.BlockID{})
	final := self.SignVote(types.VoteFinalize, 1, types.BlockID{})
	inner := &scriptedEngine{id: 0, acts: []protocol.Action{
		protocol.Broadcast{Msg: &types.VoteMsg{Votes: []types.Vote{notar, fast}}},
		protocol.Broadcast{Msg: &types.VoteMsg{Votes: []types.Vote{final}}},
	}}
	w := NewVoteWithholder(inner, self)
	acts := w.Start(time.Unix(0, 0))
	if len(acts) != 1 {
		t.Fatalf("%d broadcasts survived, want 1 (the all-stripped VoteMsg is dropped)", len(acts))
	}
	vm := acts[0].(protocol.Broadcast).Msg.(*types.VoteMsg)
	if len(vm.Votes) != 2 || vm.Votes[0].Kind != types.VoteNotarize || vm.Votes[1].Kind != types.VoteNotarize {
		t.Fatalf("surviving votes %v, want the notarization vote and the fast vote re-signed as one", vm.Votes)
	}
	keyring, _ := crypto.GenerateCluster(crypto.HMAC(), 4, 4)
	if err := crypto.VerifyVote(keyring, vm.Votes[1]); err != nil {
		t.Fatalf("re-signed notarization vote: %v", err)
	}
}

func TestVoteWithholderStripsProposalFastVote(t *testing.T) {
	_, signers := crypto.GenerateCluster(crypto.HMAC(), 4, 5)
	prop := signedProposal(t, signers[0], 0, true)
	inner := &scriptedEngine{id: 0, acts: []protocol.Action{protocol.Broadcast{Msg: prop}}}
	w := NewVoteWithholder(inner, signers[0])
	acts := w.Start(time.Unix(0, 0))
	if len(acts) != 1 {
		t.Fatalf("got %d actions, want 1", len(acts))
	}
	got := acts[0].(protocol.Broadcast).Msg.(*types.Proposal)
	if got.FastVote != nil {
		t.Fatal("fast vote riding on the proposal was not stripped")
	}
	if got.Block != prop.Block {
		t.Fatal("withholder altered the proposal's block")
	}
	if prop.FastVote == nil {
		t.Fatal("withholder mutated the original proposal instead of copying it")
	}
}

// TestSplitVoterVotes: the wrapped engine's votes are dropped; the first
// block heard of in a round gets a lone fast vote (plus the finalization
// vote claiming nothing else was voted for), every other block of the
// round a bare notarization vote, and a repeat of either nothing.
func TestSplitVoterVotes(t *testing.T) {
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), 4, 8)
	honest := signers[3].SignVote(types.VoteFast, 1, types.BlockID{})
	inner := &scriptedEngine{id: 3, acts: []protocol.Action{
		protocol.Broadcast{Msg: &types.VoteMsg{Votes: []types.Vote{honest}}},
	}}
	s := NewSplitVoter(inner, signers[3])
	a := signedProposal(t, signers[0], 0, true)
	twin := types.NewBlock(a.Block.Round, 0, 0, a.Block.Parent, types.SyntheticPayload(9, 9))
	if err := signers[0].SignBlock(twin); err != nil {
		t.Fatal(err)
	}
	kinds := func(acts []protocol.Action, block types.BlockID) []types.VoteKind {
		t.Helper()
		var out []types.VoteKind
		for _, act := range acts {
			vm, ok := act.(protocol.Broadcast).Msg.(*types.VoteMsg)
			if !ok {
				continue
			}
			for _, v := range vm.Votes {
				if v.Voter != 3 || v.Block != block || crypto.VerifyVote(keyring, v) != nil {
					t.Fatalf("unexpected vote %v", v)
				}
				out = append(out, v.Kind)
			}
		}
		return out
	}
	got := kinds(s.HandleMessage(0, a, time.Unix(0, 0)), a.Block.ID())
	if len(got) != 2 || got[0] != types.VoteFast || got[1] != types.VoteFinalize {
		t.Fatalf("first block: votes %v, want [fast finalize]", got)
	}
	relay := &types.Proposal{Header: twin.SignedHeader(), Relayed: true}
	if got := kinds(s.HandleMessage(1, relay, time.Unix(0, 0)), twin.ID()); len(got) != 1 || got[0] != types.VoteNotarize {
		t.Fatalf("twin: votes %v, want [notarize]", got)
	}
	if got := kinds(s.HandleMessage(2, a, time.Unix(0, 0)), a.Block.ID()); len(got) != 0 {
		t.Fatalf("repeat: votes %v, want none", got)
	}
	if s.FastVotes() != 1 || s.Splits() != 1 {
		t.Fatalf("FastVotes=%d Splits=%d, want 1 and 1", s.FastVotes(), s.Splits())
	}
}

func TestBatchWithholderNarrowsBodiesAndRefusesFetches(t *testing.T) {
	body := types.BytesPayload([]byte("batch-body"))
	digest := body.Digest()
	ann := &types.BatchAnnounce{Origin: 0, Digest: digest, Body: body}
	ack := &types.BatchAnnounce{Origin: 0, Digest: digest}
	resp := &types.BatchResponse{Digest: digest, Body: body}
	vote := types.Vote{Kind: types.VoteNotarize, Round: 1}
	inner := &scriptedEngine{id: 0, acts: []protocol.Action{
		protocol.Broadcast{Msg: ann},                                       // own body: narrowed
		protocol.Send{To: 3, Msg: ack},                                     // ack of a peer batch: kept
		protocol.Send{To: 3, Msg: resp},                                    // fetch response: dropped
		protocol.Broadcast{Msg: &types.VoteMsg{Votes: []types.Vote{vote}}}, // consensus: kept
	}}
	w := NewBatchWithholder(inner, []types.ReplicaID{1, 2})

	acts := w.Start(time.Unix(0, 0))

	served := map[types.ReplicaID]bool{}
	for _, a := range acts {
		switch act := a.(type) {
		case protocol.Broadcast:
			if _, isAnn := act.Msg.(*types.BatchAnnounce); isAnn {
				t.Fatal("body announce escaped as a broadcast")
			}
		case protocol.Send:
			switch m := act.Msg.(type) {
			case *types.BatchAnnounce:
				if m.IsAck() {
					if act.To != 3 {
						t.Fatalf("ack rerouted to %d", act.To)
					}
					continue
				}
				served[act.To] = true
			case *types.BatchResponse:
				t.Fatal("fetch response escaped")
			}
		}
	}
	if !served[1] || !served[2] || len(served) != 2 {
		t.Fatalf("body served to %v, want exactly replicas 1 and 2", served)
	}
	if w.Withheld() != 1 || w.Refused() != 1 {
		t.Fatalf("withheld=%d refused=%d, want 1 and 1", w.Withheld(), w.Refused())
	}
}

// TestPullWithholderDropsOnlyPullReplies: header relays, votes and the
// adversary's own proposal pass; the unicast body-form relay that answers
// a BlockRequest does not.
func TestPullWithholderDropsOnlyPullReplies(t *testing.T) {
	_, signers := crypto.GenerateCluster(crypto.Ed25519(), 4, 8)
	own := signedProposal(t, signers[1], 0, true)
	foreign := signedProposal(t, signers[0], 0, true)
	headerRelay := &types.Proposal{Header: foreign.Block.SignedHeader(), FastVote: foreign.FastVote, Relayed: true}
	reply := &types.Proposal{Block: foreign.Block, FastVote: foreign.FastVote, Relayed: true}
	vote := &types.VoteMsg{Votes: []types.Vote{signers[1].SignVote(types.VoteNotarize, 1, foreign.Block.ID())}}
	inner := &scriptedEngine{id: 1, acts: []protocol.Action{
		protocol.Broadcast{Msg: own},
		protocol.Broadcast{Msg: headerRelay},
		protocol.Broadcast{Msg: vote},
		protocol.Send{To: 3, Msg: reply},
		protocol.Send{To: 2, Msg: &types.SyncRequest{From: 1, To: 2}},
	}}
	w := NewPullWithholder(inner)
	acts := w.HandleMessage(3, &types.BlockRequest{Round: 1, ID: foreign.Block.ID()}, time.Unix(0, 0))
	if len(acts) != 4 || w.Refused() != 1 {
		t.Fatalf("kept %d actions, refused %d; want 4 and 1", len(acts), w.Refused())
	}
	for _, a := range acts {
		if s, ok := a.(protocol.Send); ok && s.Msg == types.Message(reply) {
			t.Fatal("pull reply escaped")
		}
	}
}

// TestSettledFlooderSpraysOnlyFinalizedRounds: the inner engine's actions
// pass through untouched; each commit adds one burst, unicast to the
// victim alone, for the round floodLag behind it — well-formed enough to
// pass every structural check, signed by nobody, and never twice with the
// same bytes.
func TestSettledFlooderSpraysOnlyFinalizedRounds(t *testing.T) {
	const n, victim = 7, types.ReplicaID(2)
	keyring, _ := crypto.GenerateCluster(crypto.Ed25519(), n, 8)
	inner := &scriptedEngine{id: 6}
	f := NewSettledFlooder(inner, victim, n)
	blocks := make([]*types.Block, 6)
	for i := range blocks {
		blocks[i] = types.NewBlock(types.Round(i+1), 0, 0, types.BlockID{}, types.SyntheticPayload(8, uint64(i)))
	}
	seen := map[string]bool{}
	for i, b := range blocks {
		vote := protocol.Broadcast{Msg: &types.VoteMsg{}}
		inner.acts = []protocol.Action{vote, protocol.Commit{Blocks: []*types.Block{b}}}
		acts := f.HandleMessage(1, &types.CertMsg{}, time.Unix(0, 0))
		if acts[0] != protocol.Action(vote) || len(acts) < 2 {
			t.Fatalf("round %d: inner actions not passed through: %v", b.Round, acts)
		}
		flood := acts[2:]
		if i < floodLag {
			if len(flood) != 0 {
				t.Fatalf("round %d: flooded before any round was %d behind the tip", b.Round, floodLag)
			}
			continue
		}
		target := blocks[i-floodLag]
		var items int64
		for _, a := range flood {
			s, ok := a.(protocol.Send)
			if !ok || s.To != victim {
				t.Fatalf("flood action %v is not a unicast to the victim", a)
			}
			var certs []*types.Certificate
			switch m := s.Msg.(type) {
			case *types.VoteMsg:
				for _, v := range m.Votes {
					if v.Round != target.Round || v.Block != target.ID() || !v.Kind.Valid() {
						t.Fatalf("vote %v does not name the finalized block of round %d", v, target.Round)
					}
					if crypto.VerifyVote(keyring, v) == nil || seen[string(v.Signature)] {
						t.Fatal("flood vote verifies, or repeats an earlier signature")
					}
					seen[string(v.Signature)] = true
					items++
				}
			case *types.CertMsg:
				certs = append(certs, m.Cert)
			case *types.Advance:
				certs = append(certs, m.Notarization)
				if m.Unlock.Round != target.Round || len(m.Unlock.Entries[0].Voters) != n {
					t.Fatalf("unlock proof %v", m.Unlock)
				}
				items++
			default:
				t.Fatalf("unexpected flood message %T", s.Msg)
			}
			for _, c := range certs {
				if c.Round != target.Round || c.CheckShape(n, n) != nil {
					t.Fatalf("certificate %v would be dismissed on shape alone", c)
				}
				items++
			}
		}
		if items != f.BurstItems() {
			t.Fatalf("round %d: burst carried %d items, BurstItems says %d", b.Round, items, f.BurstItems())
		}
	}
	if want := int64(len(blocks)-floodLag) * f.BurstItems(); f.Items() != want {
		t.Fatalf("Items() = %d, want %d", f.Items(), want)
	}
}

// TestAdversaryIdentity: wrappers must report the wrapped replica's ID and
// metrics while advertising their deviation in the protocol name.
func TestAdversaryIdentity(t *testing.T) {
	_, signers := crypto.GenerateCluster(crypto.HMAC(), 4, 6)
	inner := &scriptedEngine{id: 3}
	for _, tc := range []struct {
		eng  protocol.Engine
		want string
	}{
		{NewEquivocatingLeader(inner, signers[3], 4), "scripted-equivocator"},
		{NewSilent(inner, time.Unix(0, 0)), "scripted-mute"},
		{NewVoteWithholder(inner, signers[3]), "scripted-withholder"},
		{NewSplitVoter(inner, signers[3]), "scripted-split-voter"},
		{NewPullWithholder(inner), "scripted-pull-withholder"},
		{NewSettledFlooder(inner, 0, 4), "scripted-settled-flooder"},
	} {
		if tc.eng.ID() != 3 {
			t.Errorf("%s: ID() = %d, want 3", tc.want, tc.eng.ID())
		}
		if tc.eng.Protocol() != tc.want {
			t.Errorf("Protocol() = %q, want %q", tc.eng.Protocol(), tc.want)
		}
		if tc.eng.Metrics()["x"] != 1 {
			t.Errorf("%s: metrics not proxied", tc.want)
		}
	}
}

func TestBatchFlooderAddsFreshBodies(t *testing.T) {
	vote := types.Vote{Kind: types.VoteNotarize, Round: 1}
	inner := &scriptedEngine{id: 2, acts: []protocol.Action{
		protocol.Broadcast{Msg: &types.VoteMsg{Votes: []types.Vote{vote}}},
	}}
	f := NewBatchFlooder(inner, 64, 3)
	acts := f.Start(time.Unix(0, 0))
	seen := map[[32]byte]bool{}
	for _, a := range acts[1:] {
		ann := a.(protocol.Broadcast).Msg.(*types.BatchAnnounce)
		if ann.Origin != 2 || ann.Body.Size() != 64 || ann.Body.Digest() != ann.Digest ||
			ann.Body.SynthSeed&FloodSeedMark == 0 || seen[ann.Digest] {
			t.Fatalf("bad junk announce %+v", ann)
		}
		seen[ann.Digest] = true
	}
	if _, ok := acts[0].(protocol.Broadcast).Msg.(*types.VoteMsg); !ok || len(seen) != 3 || f.Flooded() != 3 {
		t.Fatalf("acts %v: want the engine's vote, then 3 fresh bodies", acts)
	}
}
