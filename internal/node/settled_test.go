package node

import (
	"testing"
	"time"

	"banyan/internal/core"
	"banyan/internal/crypto"
	"banyan/internal/types"
)

// TestNodeSkipsSettledRounds runs a real engine in a node. Once round 1
// is finalized and left, honestly signed late traffic for it — which
// would cost a cache miss, i.e. a curve operation, per signature if
// anyone looked — is not verified: the miss counter moves only for the
// round-2 proposal sent behind it, and the engine reports the items as
// dropped.
func TestNodeSkipsSettledRounds(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	keyring, signers := crypto.GenerateCluster(crypto.Ed25519(), params.N, 11)
	const self = types.ReplicaID(0) // rank 3 in round 1, rank 2 in round 2
	verifier := crypto.NewVerifier(keyring)
	eng, err := core.New(core.Config{
		Params: params, Self: self, Keyring: keyring, Signer: signers[self],
		Delta: time.Second, Verifier: verifier,
	})
	if err != nil {
		t.Fatal(err)
	}
	set := eng.History().Genesis()
	tr := newMemTransport()
	commits := make(chan CommitEvent, 4)
	n, err := New(Config{Engine: eng, Transport: tr, Commits: commits})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	block := func(round types.Round, parent types.BlockID) (*types.Block, *types.Proposal) {
		leader := set.Leader(round)
		b := types.NewBlock(round, leader, 0, parent, types.BytesPayload([]byte{byte(round)}))
		if err := signers[leader].SignBlock(b); err != nil {
			t.Fatal(err)
		}
		fv := signers[leader].SignVote(types.VoteFast, round, b.ID())
		return b, &types.Proposal{Block: b, FastVote: &fv}
	}
	votes := func(voter types.ReplicaID, b *types.Block, kinds ...types.VoteKind) *types.VoteMsg {
		m := &types.VoteMsg{}
		for _, k := range kinds {
			m.Votes = append(m.Votes, signers[voter].SignVote(k, b.Round, b.ID()))
		}
		return m
	}

	// Round 1 on the fast path: proposal, the leader's notarization vote,
	// one more replica's vote pair. Replica 3's votes stay back.
	b1, p1 := block(1, types.Genesis().ID())
	tr.in <- Inbound{From: b1.Proposer, Msg: p1}
	tr.in <- Inbound{From: b1.Proposer, Msg: votes(b1.Proposer, b1, types.VoteNotarize)}
	tr.in <- Inbound{From: 2, Msg: votes(2, b1, types.VoteNotarize, types.VoteFast)}
	select {
	case ev := <-commits:
		if len(ev.Blocks) != 1 || ev.Blocks[0].ID() != b1.ID() {
			t.Fatalf("unexpected commit %+v", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("round 1 did not finalize")
	}
	_, missesBefore := verifier.CacheStats()

	// Late, valid, never-seen signatures for round 1: 3 votes, and a
	// notarization (3) and fast-finalization certificate (3) that include
	// replica 3's.
	late := votes(3, b1, types.VoteNotarize, types.VoteFast, types.VoteFinalize)
	cert := func(kind types.CertKind, vk types.VoteKind) *types.Certificate {
		var vs []types.Vote
		for _, id := range []types.ReplicaID{1, 2, 3} {
			vs = append(vs, signers[id].SignVote(vk, 1, b1.ID()))
		}
		c, err := types.NewCertificate(kind, 1, b1.ID(), vs)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	notar := cert(types.CertNotarization, types.VoteNotarize)
	tr.in <- Inbound{From: 3, Msg: late}
	tr.in <- Inbound{From: 3, Msg: &types.CertMsg{Cert: cert(types.CertFastFinalization, types.VoteFast)}}
	tr.in <- Inbound{From: 3, Msg: &types.Advance{Notarization: notar}}
	// The round-2 proposal behind them carries the same notarization as
	// its parent credential; the node keeps arrival order, so the vote it
	// draws means everything before it went through.
	_, p2 := block(2, b1.ID())
	p2.ParentNotarization = notar
	tr.in <- Inbound{From: p2.Block.Proposer, Msg: p2}
	waitFor(t, func() bool {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for _, m := range tr.sent {
			if vm, ok := m.(*types.VoteMsg); ok && vm.Votes[0].Round == 2 {
				return true
			}
		}
		return false
	})

	n.Stop() // engine metrics are readable only once the loop has exited
	if _, misses := verifier.CacheStats(); misses-missesBefore != 2 {
		t.Errorf("%d signatures verified, want 2 (round-2 block and fast vote): settled traffic was verified",
			misses-missesBefore)
	}
	if got := n.Metrics()["settled_dropped"]; got != 3+1+1+1 {
		t.Errorf("engine dropped %d items as settled, want 6", got)
	}
}
