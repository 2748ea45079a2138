package core

import (
	"testing"

	"banyan/internal/dissem"
	"banyan/internal/fetch"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// TestRestartRefetchesBatchesInWindow: a replica restarts from a journal
// whose finalized block references more batches than the fetch window,
// and its rebuilt store holds none of them. The first live progress pass
// asks the origin for a whole window of them at once, not one by one.
func TestRestartRefetchesBatchesInWindow(t *testing.T) {
	const missing = fetch.Window + 4
	set := genesisSet(t, p411)
	self := set.ReplicaAt(1, 3)
	r := newRig(t, p411, self)
	leader := r.set.Leader(1)
	refs := make([]types.BatchRef, missing)
	for i := range refs {
		refs[i] = types.BatchRef{Digest: [32]byte{byte(i + 1)}, Size: 1}
	}
	b := types.NewBlock(1, leader, 0, types.Genesis().ID(), types.BatchPayload(refs, nil))
	if err := r.signers[leader].SignBlock(b); err != nil {
		t.Fatal(err)
	}

	e := replayRig(t, r, func(cfg *Config) {
		cfg.Dissem = dissem.NewStore(dissem.Config{Self: self, N: p411.N})
	})
	e.BeginReplay()
	e.Start(r.now)
	e.HandleMessage(leader, r.proposalFor(b), r.now)
	e.HandleMessage(leader, r.fastFinalCert(b, set.ReplicaAt(1, 0), set.ReplicaAt(1, 1), set.ReplicaAt(1, 2)), r.now)
	if e.Tree().FinalizedRound() != 1 {
		t.Fatal("setup: replay did not finalize the block")
	}
	if m := e.Metrics(); m["dissemFetches"] != 0 || m["dissemDelivQueued"] != 1 {
		t.Fatalf("replay fetched or delivered: %v", m)
	}

	asked := map[[32]byte]bool{}
	for _, a := range e.EndReplay(r.now) {
		s, ok := a.(protocol.Send)
		if !ok {
			continue
		}
		if req, ok := s.Msg.(*types.BatchRequest); ok {
			if s.To != leader {
				t.Fatalf("batch requested from %d, want the origin %d", s.To, leader)
			}
			asked[req.Digest] = true
		}
	}
	if len(asked) != fetch.Window {
		t.Fatalf("restart asked for %d of %d missing batches at once, want %d", len(asked), missing, fetch.Window)
	}
}
