package streamlet

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

func cluster(t *testing.T, n int, epoch time.Duration) []protocol.Engine {
	t.Helper()
	params := types.Params{N: n, F: (n - 1) / 3}
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), n, 5)
	set, err := membership.Genesis(keyring, params)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]protocol.Engine, n)
	for i := 0; i < n; i++ {
		eng, err := New(Config{
			Set:           set,
			Self:          types.ReplicaID(i),
			Keyring:       keyring,
			Signer:        signers[i],
			EpochDuration: epoch,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	return engines
}

// TestThreeConsecutiveEpochsFinalize: on a synchronous network, the chain
// grows one block per epoch and finality lags the tip by one epoch (the
// middle of each consecutive triple commits).
func TestThreeConsecutiveEpochsFinalize(t *testing.T) {
	engines := cluster(t, 4, 100*time.Millisecond)
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
	// ~30 epochs; finality lags by roughly 2, so expect >= 20 commits.
	total := 0
	var lastEpoch types.Round
	for _, c := range commits {
		for _, b := range c.Blocks {
			total++
			if b.Round <= lastEpoch {
				t.Fatalf("commit order violated: epoch %d after %d", b.Round, lastEpoch)
			}
			lastEpoch = b.Round
		}
	}
	if total < 20 {
		t.Fatalf("committed %d blocks in 3s, want >= 20", total)
	}
}

// TestCrashedLeaderSkipsEpoch: with one replica crashed, its epochs
// produce no block but the chain continues across the gap.
func TestCrashedLeaderSkipsEpoch(t *testing.T) {
	engines := cluster(t, 4, 100*time.Millisecond)
	committed := make(map[types.Round]bool)
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(4, 10*time.Millisecond),
	}, simnet.Hooks{
		OnCommit: func(node types.ReplicaID, _ time.Time, c protocol.Commit) {
			if node == 0 {
				for _, b := range c.Blocks {
					committed[b.Round] = true
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.CrashAt(2, 0) // replica 2 leads epochs 2, 6, 10, ...
	net.Run(4 * time.Second)
	if len(committed) < 10 {
		t.Fatalf("committed %d blocks with one crashed replica", len(committed))
	}
	for epoch := range committed {
		if engines[0].(*Engine).cfg.Set.Leader(epoch) == 2 {
			t.Fatalf("epoch %d led by the crashed replica produced a block", epoch)
		}
	}
}

// TestVoteOnlyForCurrentEpochLeader: proposals from the wrong leader or
// for the wrong epoch get no vote.
func TestVoteOnlyForCurrentEpochLeader(t *testing.T) {
	engines := cluster(t, 4, time.Hour) // frozen in epoch 1
	e := engines[3].(*Engine)
	now := time.Unix(0, 0)
	e.Start(now)
	_, signers := crypto.GenerateCluster(crypto.HMAC(), 4, 5)
	set := e.cfg.Set

	// Wrong epoch (2, while the replica is in 1).
	leader2 := set.Leader(2)
	b2 := types.NewBlock(2, leader2, 0, types.Genesis().ID(), types.Payload{})
	if err := signers[leader2].SignBlock(b2); err != nil {
		t.Fatal(err)
	}
	acts := e.HandleMessage(leader2, &types.Proposal{Block: b2}, now)
	if countBroadcastVotes(acts) != 0 {
		t.Fatal("voted for a future epoch's proposal")
	}

	// Correct epoch and leader: one vote, broadcast.
	leader1 := set.Leader(1)
	b1 := types.NewBlock(1, leader1, 0, types.Genesis().ID(), types.Payload{})
	if err := signers[leader1].SignBlock(b1); err != nil {
		t.Fatal(err)
	}
	acts = e.HandleMessage(leader1, &types.Proposal{Block: b1}, now)
	if countBroadcastVotes(acts) != 1 {
		t.Fatal("no vote for the epoch leader's proposal")
	}

	// Second proposal in the same epoch: no second vote.
	b1b := types.NewBlock(1, leader1, 0, types.Genesis().ID(), types.BytesPayload([]byte{9}))
	if err := signers[leader1].SignBlock(b1b); err != nil {
		t.Fatal(err)
	}
	acts = e.HandleMessage(leader1, &types.Proposal{Block: b1b}, now)
	if countBroadcastVotes(acts) != 0 {
		t.Fatal("voted twice in one epoch")
	}
}

func countBroadcastVotes(acts []protocol.Action) int {
	n := 0
	for _, a := range acts {
		if b, ok := a.(protocol.Broadcast); ok {
			if vm, ok := b.Msg.(*types.VoteMsg); ok {
				n += len(vm.Votes)
			}
		}
	}
	return n
}

// TestVoteRequiresLongestChainExtension: a proposal extending a shorter
// notarized chain is not voted for.
func TestVoteRequiresLongestChainExtension(t *testing.T) {
	engines := cluster(t, 4, time.Hour)
	e := engines[3].(*Engine)
	now := time.Unix(0, 0)
	e.Start(now)
	_, signers := crypto.GenerateCluster(crypto.HMAC(), 4, 5)
	set := e.cfg.Set
	leader1 := set.Leader(1)

	// Build a notarized chain of length 1 locally: block b0 at epoch 1
	// gets 3 votes.
	b0 := types.NewBlock(1, leader1, 0, types.Genesis().ID(), types.BytesPayload([]byte{1}))
	if err := signers[leader1].SignBlock(b0); err != nil {
		t.Fatal(err)
	}
	e.HandleMessage(leader1, &types.Proposal{Block: b0}, now)
	for _, peer := range []types.ReplicaID{0, 1} {
		v := signers[peer].SignVote(types.VoteNotarize, 1, b0.ID())
		e.HandleMessage(peer, &types.VoteMsg{Votes: []types.Vote{v}}, now)
	}
	if !e.tree.IsNotarized(b0.ID()) {
		t.Fatal("b0 not notarized")
	}

	// Force epoch 2 via the timer, then feed a proposal extending GENESIS
	// (shorter than the notarized chain through b0): no vote.
	acts := e.HandleTimer(protocol.TimerID{Round: 2, Kind: protocol.TimerView}, now.Add(time.Minute))
	_ = acts
	leader2 := set.Leader(2)
	short := types.NewBlock(2, leader2, 0, types.Genesis().ID(), types.BytesPayload([]byte{2}))
	if err := signers[leader2].SignBlock(short); err != nil {
		t.Fatal(err)
	}
	acts = e.HandleMessage(leader2, &types.Proposal{Block: short}, now.Add(time.Minute))
	if countBroadcastVotes(acts) != 0 {
		t.Fatal("voted for a proposal extending a non-longest chain")
	}
	// A proposal extending b0 is voted.
	good := types.NewBlock(2, leader2, 0, b0.ID(), types.BytesPayload([]byte{3}))
	if err := signers[leader2].SignBlock(good); err != nil {
		t.Fatal(err)
	}
	acts = e.HandleMessage(leader2, &types.Proposal{Block: good}, now.Add(time.Minute))
	if countBroadcastVotes(acts) != 1 {
		t.Fatal("no vote for the longest-chain extension")
	}
}
