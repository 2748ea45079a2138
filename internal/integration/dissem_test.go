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
	return makeDissemCluster(t, params, func(id types.ReplicaID) dissem.Source {
		return mempool.NewSynthetic(4<<10, 99^uint64(id)<<32, false)
	}, wrap)
}

// makeDissemCluster is makeDissemEngines with a per-replica source (nil:
// the replica cuts nothing).
func makeDissemCluster(t *testing.T, params types.Params, source func(types.ReplicaID) dissem.Source,
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
			Source:     source(id),
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

// batchCounter counts, per replica, the batch bodies its commits deliver
// (the refs delivery does not skip), keyed by body digest.
type batchCounter map[types.ReplicaID]map[[32]byte]int

// hook wraps a commit hook to count every body a commit carries — what
// the application is handed — and calls seen (if set) with each.
func (c batchCounter) hook(base func(types.ReplicaID, time.Time, protocol.Commit),
	seen func(node types.ReplicaID, body types.Payload)) func(types.ReplicaID, time.Time, protocol.Commit) {
	return func(node types.ReplicaID, at time.Time, cm protocol.Commit) {
		base(node, at, cm)
		if c[node] == nil {
			c[node] = make(map[[32]byte]int)
		}
		for _, bodies := range cm.Bodies {
			for _, body := range bodies {
				c[node][body.Digest()]++
				if seen != nil {
					seen(node, *body)
				}
			}
		}
	}
}

// listSource hands out a fixed list of batch bodies, one per cut.
type listSource struct{ bodies []types.Payload }

func (l *listSource) CutBatch(int) types.Payload {
	if len(l.bodies) == 0 {
		return types.Payload{}
	}
	b := l.bodies[0]
	l.bodies = l.bodies[1:]
	return b
}

// TestDissemStrandedOriginCommitsOnce: replica 3 cuts k batches (its whole
// 2×BlockBytes inventory), collects
// their acks and crashes before it leads a round. Its batches are no
// longer its own to propose: the survivors propose them, every one
// commits exactly once at each survivor, and once compaction passes them
// no survivor holds a body.
func TestDissemStrandedOriginCommitsOnce(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	const (
		k        = 4
		stranded = types.ReplicaID(3)
		oneWay   = 10 * time.Millisecond
	)
	var bodies []types.Payload
	for i := 0; i < k; i++ {
		bodies = append(bodies, types.SyntheticPayload(4<<10, 0x57A4D<<20|uint64(i)))
	}
	engines := makeDissemCluster(t, params, func(id types.ReplicaID) dissem.Source {
		if id == stranded {
			return &listSource{bodies: append([]types.Payload(nil), bodies...)}
		}
		return nil
	}, nil)
	held := func(i int) int64 { return engines[i].Metrics()["dissemBodiesHeld"] }
	baseline := held(0)

	log := newCommitLog()
	hooks := log.hooks()
	counts := batchCounter{}
	hooks.OnCommit = counts.hook(hooks.OnCommit, nil)
	net, err := simnet.New(engines, simnet.Options{Topology: wan.Uniform(4, oneWay), Seed: 5}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	// Announces land at 10 ms and their acks at 20 ms; replica 3 leads
	// round 4, some 60 ms in.
	net.CrashAt(stranded, 25*time.Millisecond)
	net.Run(8 * time.Second)

	if len(log.faults) > 0 {
		t.Fatalf("faults: %v", log.faults)
	}
	log.checkPrefixConsistent(t)
	m := engines[stranded].Metrics()
	if m["proposals"] != 0 || m["dissemAcks"] < int64(k*2) {
		t.Fatalf("replica 3 made %d proposals and holds %d acks; want none and its k batches acked",
			m["proposals"], m["dissemAcks"])
	}
	for i := range engines {
		id := types.ReplicaID(i)
		if id == stranded {
			continue
		}
		for j, b := range bodies {
			if n := counts[id][b.Digest()]; n != 1 {
				t.Errorf("survivor %d delivered stranded batch %d %d times, want once", id, j, n)
			}
		}
		fin := engines[i].(*core.Engine).Tree().FinalizedRound()
		if fin < 2*64 {
			t.Fatalf("survivor %d finalized only %d rounds: no compaction passed the batches", id, fin)
		}
		if got := held(i); got != baseline {
			t.Errorf("survivor %d holds %d bodies after compaction, baseline %d", id, got, baseline)
		}
	}
}

// floodSource classifies a delivered synthetic body by its origin: the
// flooder's junk, or the honest synthetic source of a replica.
func floodOrigin(body types.Payload) (types.ReplicaID, bool) {
	if body.SynthSeed&byzantine.FloodSeedMark != 0 {
		return 0, true
	}
	return types.ReplicaID(body.SynthSeed >> 32 & 0xFF), false
}

// TestDissemBatchFlooderIsCapped: replica 2 runs consensus faithfully and
// floods junk batch bodies with every event. Each honest replica holds at
// most 2×BlockBytes + BatchBytes of its unfinalized bodies and refuses
// the rest; honest origins' batches keep committing. The same cluster
// without the flooder refuses nothing, and its leaders propose other
// origins' batches.
func TestDissemBatchFlooderIsCapped(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	const (
		evil     = types.ReplicaID(2)
		capBytes = 2*(8<<10) + 4<<10
	)
	synthetic := func(id types.ReplicaID) dissem.Source {
		return mempool.NewSynthetic(4<<10, 99^uint64(id)<<32, false)
	}
	for _, flood := range []bool{false, true} {
		var flooder *byzantine.BatchFlooder
		engines := makeDissemCluster(t, params, synthetic,
			func(id types.ReplicaID, eng protocol.Engine, _ *crypto.Signer) protocol.Engine {
				if flood && id == evil {
					flooder = byzantine.NewBatchFlooder(eng, 4<<10, 1)
					return flooder
				}
				return eng
			})
		honest := map[types.ReplicaID]bool{0: true, 1: true, 3: true}
		if !flood {
			honest[evil] = true
		}
		var heldMax, foreignRefs int64
		junk := map[types.ReplicaID]int{}
		fromHonest := map[types.ReplicaID]map[types.ReplicaID]int{}
		log := newCommitLog()
		hooks := log.hooks()
		counts := batchCounter{}
		hooks.OnCommit = counts.hook(hooks.OnCommit, func(node types.ReplicaID, body types.Payload) {
			if origin, isJunk := floodOrigin(body); isJunk {
				junk[node]++
			} else {
				if fromHonest[node] == nil {
					fromHonest[node] = map[types.ReplicaID]int{}
				}
				fromHonest[node][origin]++
			}
			for id := range honest {
				heldMax = max(heldMax, engines[id].Metrics()["dissemForeignHeldMax"])
			}
		})
		net, err := simnet.New(engines, simnet.Options{Topology: wan.Uniform(4, 10*time.Millisecond), Seed: 43}, hooks)
		if err != nil {
			t.Fatal(err)
		}
		net.Run(10 * time.Second)

		if len(log.faults) > 0 {
			t.Fatalf("flood=%v: faults: %v", flood, log.faults)
		}
		log.checkPrefixConsistent(t)
		if heldMax > capBytes {
			t.Errorf("flood=%v: an honest replica held %d unfinalized bytes of one origin, cap %d", flood, heldMax, capBytes)
		}
		for id := range honest {
			m := engines[id].Metrics()
			if refused := m["dissemRefused"]; flood != (refused > 0) {
				t.Errorf("flood=%v: honest replica %d refused %d announces", flood, id, refused)
			}
			foreignRefs += m["dissemForeignRefs"]
			for origin := range honest {
				if origin != evil && fromHonest[id][origin] < 100 {
					t.Errorf("flood=%v: replica %d delivered %d batches of honest origin %d",
						flood, id, fromHonest[id][origin], origin)
				}
			}
			for digest, n := range counts[id] {
				if n != 1 {
					t.Fatalf("flood=%v: replica %d delivered batch %x %d times", flood, id, digest[:4], n)
				}
			}
		}
		if !flood && foreignRefs == 0 {
			t.Error("no replica proposed another origin's batch")
		}
		if flood {
			t.Logf("flooder broadcast %d junk bodies; replica 0 delivered %d of them, %v honest",
				flooder.Flooded(), junk[0], fromHonest[0])
		}
	}
}
