package integration_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"banyan/internal/byzantine"
	"banyan/internal/core"
	"banyan/internal/crypto"
	"banyan/internal/dissem"
	"banyan/internal/mempool"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// Whole-cluster batteries for the batch-dissemination layer: a Byzantine
// origin that withholds bodies must not touch the vote path and must be
// routed around by fetch-on-miss, and randomized loss/reordering must
// never produce a fork or a stuck delivery queue.

// makeDissemEngines builds Banyan engines with a dissemination store per
// replica (synthetic batch source, one 4 KB batch per cut, 8 KB blocks).
func makeDissemEngines(t *testing.T, params types.Params,
	wrap func(id types.ReplicaID, eng protocol.Engine, signer *crypto.Signer) protocol.Engine,
) []protocol.Engine {
	t.Helper()
	keyring, signers := crypto.GenerateCluster(crypto.Ed25519(), params.N, 99)
	engines := make([]protocol.Engine, params.N)
	for i := 0; i < params.N; i++ {
		id := types.ReplicaID(i)
		store := dissem.NewStore(dissem.Config{
			Self:       id,
			N:          params.N,
			BatchBytes: 4 << 10,
			BlockBytes: 8 << 10,
			Source:     mempool.NewSynthetic(4<<10, 99^uint64(id)<<32, false),
		})
		eng, err := core.New(core.Config{
			Params: params, Self: id, Keyring: keyring, Signer: signers[i],
			Delta:  50 * time.Millisecond,
			Dissem: store,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
		if wrap != nil {
			engines[i] = wrap(id, eng, signers[i])
		}
	}
	return engines
}

// TestDissemBatchWithholder: a Byzantine origin announces its batch
// bodies to exactly the ack quorum (replicas 0 and 1), starving replica 3,
// and refuses every fetch afterwards. Votes and finalization must be
// unaffected — the withholder's blocks still commit everywhere — and
// replica 3 must recover delivery by rotating its fetch off the silent
// origin onto an acked holder.
func TestDissemBatchWithholder(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	const evil = types.ReplicaID(2)
	var adversary *byzantine.BatchWithholder
	engines := makeDissemEngines(t, params,
		func(id types.ReplicaID, eng protocol.Engine, signer *crypto.Signer) protocol.Engine {
			if id == evil {
				// f+1 = 2 acks keep the adversary's batches proposable while
				// replica 3 never receives a body from the origin.
				adversary = byzantine.NewBatchWithholder(eng, []types.ReplicaID{0, 1})
				return adversary
			}
			return eng
		})
	honest := map[types.ReplicaID]bool{0: true, 1: true, 3: true}
	log := runAdversarial(t, engines, simnet.Options{
		Topology: wan.Uniform(4, 10*time.Millisecond),
		Seed:     41,
	}, 20*time.Second, honest)

	log.checkPrefixConsistent(t)
	if adversary.Withheld() == 0 {
		t.Fatal("adversary never withheld a body — the scenario did not engage")
	}
	if adversary.Refused() == 0 {
		t.Error("starved replica never even asked the origin — fetch-on-miss did not engage")
	}
	// Vote path unaffected: every honest replica delivers a long chain,
	// including the withholder's own rounds (1 in 4 of all rounds), and the
	// starved replica keeps pace with the fully-served ones.
	for id := range honest {
		if got := len(log.chains[id]); got < 100 {
			t.Errorf("honest replica %d delivered only %d blocks under withholding", id, got)
		}
	}
	if starved, served := len(log.chains[3]), len(log.chains[0]); starved < served-20 {
		t.Errorf("starved replica delivered %d blocks vs %d at a served replica — delivery gating leaked into progress", starved, served)
	}
	// And the recovery really went through the fetch path with rotation:
	// the starved replica fetched, and retried past the refusing origin.
	m := engines[3].Metrics()
	if m["dissemFetches"] == 0 {
		t.Error("starved replica recorded no batch fetches")
	}
	if m["dissemFetchRetries"] == 0 {
		t.Error("starved replica never rotated off the silent origin")
	}
	if m["dissemDelivQueued"] > 4 {
		t.Errorf("starved replica still has %d gated deliveries queued at shutdown", m["dissemDelivQueued"])
	}
}

// TestDissemRandomizedLossReorder: randomized jitter, reordering, and ~8%
// message drop — hitting announces, acks, requests, and responses alike —
// across seeded trials. Agreement must hold, delivery must keep flowing
// (the fetch scheduler re-requests dropped bodies), and the delivery queue
// must not wedge. BANYAN_PROPERTY_TRIALS scales the battery up in CI.
func TestDissemRandomizedLossReorder(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	trials := propertyTrials(6)
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			engines := makeDissemEngines(t, params, nil)
			rng := rand.New(rand.NewSource(int64(7000 + trial)))
			log := newCommitLog()
			net, err := simnet.New(engines, simnet.Options{
				Topology:        wan.Uniform(4, 10*time.Millisecond),
				Seed:            uint64(500 + trial),
				JitterFrac:      1.5,
				AllowReordering: trial%2 == 0,
				Filter: func(from, to types.ReplicaID, _ types.Message, _ time.Time) bool {
					return rng.Float64() >= 0.08
				},
			}, log.hooks())
			if err != nil {
				t.Fatal(err)
			}
			net.Run(20 * time.Second)
			if len(log.faults) > 0 {
				t.Fatalf("faults: %v", log.faults)
			}
			log.checkPrefixConsistent(t)
			if got := len(log.chains[0]); got < 20 {
				t.Errorf("delivered only %d blocks under loss", got)
			}
			// No replica may end wedged behind a fetchable body.
			for i, e := range engines {
				if q := e.Metrics()["dissemDelivQueued"]; q > 8 {
					t.Errorf("replica %d ended with %d gated deliveries queued", i, q)
				}
			}
		})
	}
}
