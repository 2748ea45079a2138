package hotstuff

import (
	"testing"
	"time"

	"banyan/internal/crypto"
	"banyan/internal/membership"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

func cluster(t *testing.T, n int) ([]protocol.Engine, *crypto.Keyring) {
	t.Helper()
	params := types.Params{N: n, F: (n - 1) / 3}
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), n, 3)
	set, err := membership.Genesis(keyring, params)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]protocol.Engine, n)
	for i := 0; i < n; i++ {
		eng, err := New(Config{
			Set:     set,
			Self:    types.ReplicaID(i),
			Keyring: keyring,
			Signer:  signers[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	return engines, keyring
}

// TestThreeChainCommit: on a clean network, block of view v commits once
// views v+1, v+2 form QCs and the chain reaches the proposer — and every
// commit is a direct 3-chain.
func TestThreeChainCommit(t *testing.T) {
	engines, _ := cluster(t, 4)
	var commits []protocol.Commit
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(4, 10*time.Millisecond),
	}, simnet.Hooks{
		OnCommit: func(node types.ReplicaID, _ time.Time, c protocol.Commit) {
			if node == 0 {
				commits = append(commits, c)
			}
		},
		OnFault: func(node types.ReplicaID, _ time.Time, err error) {
			t.Errorf("fault at %d: %v", node, err)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(3 * time.Second)
	if len(commits) < 10 {
		t.Fatalf("only %d commits in 3s", len(commits))
	}
	// Views are consecutive on the happy path; commits arrive in order.
	var lastRound types.Round
	for _, c := range commits {
		for _, b := range c.Blocks {
			if b.Round <= lastRound {
				t.Fatalf("commit order violated: %d after %d", b.Round, lastRound)
			}
			lastRound = b.Round
		}
	}
}

// TestSafetyRuleRejectsStaleView: a proposal for a view at or below the
// last voted view gets no vote.
func TestSafetyRuleRejectsStaleView(t *testing.T) {
	engines, keyring := cluster(t, 4)
	_ = keyring
	e := engines[3].(*Engine)
	now := time.Unix(0, 0)
	e.Start(now)

	_, signers := crypto.GenerateCluster(crypto.HMAC(), 4, 3)
	leader1 := e.cfg.Set.Leader(1)
	b := types.NewBlock(1, leader1, 0, types.Genesis().ID(), types.BytesPayload([]byte{1}))
	if err := signers[leader1].SignBlock(b); err != nil {
		t.Fatal(err)
	}
	acts := e.HandleMessage(leader1, &types.Proposal{Block: b}, now)
	if countVotes(acts) != 1 {
		t.Fatalf("first proposal: %d votes, want 1", countVotes(acts))
	}
	// A second (equivocating) view-1 proposal must not be voted.
	b2 := types.NewBlock(1, leader1, 0, types.Genesis().ID(), types.BytesPayload([]byte{2}))
	if err := signers[leader1].SignBlock(b2); err != nil {
		t.Fatal(err)
	}
	acts = e.HandleMessage(leader1, &types.Proposal{Block: b2}, now)
	if countVotes(acts) != 0 {
		t.Fatal("voted twice in one view")
	}
}

func countVotes(acts []protocol.Action) int {
	n := 0
	for _, a := range acts {
		switch m := a.(type) {
		case protocol.Send:
			if vm, ok := m.Msg.(*types.VoteMsg); ok {
				n += len(vm.Votes)
			}
		case protocol.Broadcast:
			if vm, ok := m.Msg.(*types.VoteMsg); ok {
				n += len(vm.Votes)
			}
		}
	}
	return n
}

// TestRejectsNonLeaderProposal: blocks from a replica that does not lead
// the view are rejected.
func TestRejectsNonLeaderProposal(t *testing.T) {
	engines, _ := cluster(t, 4)
	e := engines[3].(*Engine)
	now := time.Unix(0, 0)
	e.Start(now)
	_, signers := crypto.GenerateCluster(crypto.HMAC(), 4, 3)
	notLeader := e.cfg.Set.Leader(2) // leads view 2, not view 1
	b := types.NewBlock(1, notLeader, 0, types.Genesis().ID(), types.Payload{})
	if err := signers[notLeader].SignBlock(b); err != nil {
		t.Fatal(err)
	}
	e.HandleMessage(notLeader, &types.Proposal{Block: b}, now)
	if e.Metrics()["rejected"] != 1 {
		t.Fatalf("rejected = %d, want 1", e.Metrics()["rejected"])
	}
}
