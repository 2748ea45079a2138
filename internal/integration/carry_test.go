package integration_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"banyan/internal/core"
	"banyan/internal/crypto"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// handout is one payload a replica's source handed to its engine.
type handout struct {
	digest [32]byte
	round  types.Round // the round it was first drawn for
}

// TestOrphanedPayloadsCommitExactlyOnce runs clusters in which most
// proposals lose their round: Δ is below the one-way delay, so the rank-1
// and rank-2 replicas both propose before the leader's block reaches
// them, and f replicas are down from the start, so some rounds have no
// rank-0 block at all. A payload source hands each payload out once; every
// payload it handed out — but for the last rounds', which may still be
// undecided — must be committed exactly once at every live replica, and
// none twice anywhere.
func TestOrphanedPayloadsCommitExactlyOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		params  types.Params
		crashed []types.ReplicaID
	}{
		{"n4", types.Params{N: 4, F: 1, P: 1}, []types.ReplicaID{3}},
		{"n7", types.Params{N: 7, F: 2, P: 1}, []types.ReplicaID{2, 6}},
	} {
		t.Run(tc.name, func(t *testing.T) { orphanScenario(t, tc.params, tc.crashed) })
	}
}

func orphanScenario(t *testing.T, params types.Params, crashed []types.ReplicaID) {
	const (
		oneWay = 25 * time.Millisecond
		delta  = 10 * time.Millisecond // rank 1 proposes at 20 ms, rank 2 at 40 ms
	)
	// tail is how many final rounds' handouts may still be waiting for a
	// round their proposer leads and wins: a few rotations.
	tail := types.Round(6 * params.N)
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 42)
	handed := make([][]handout, params.N)
	engines := make([]protocol.Engine, params.N)
	for i := range engines {
		id := types.ReplicaID(i)
		eng, err := core.New(core.Config{
			Params: params, Self: id, Keyring: keyring, Signer: signers[i], Delta: delta,
			Payloads: protocol.PayloadFunc(func(r types.Round) types.Payload {
				p := types.SyntheticPayload(512, uint64(id)<<32|uint64(len(handed[id])))
				handed[id] = append(handed[id], handout{digest: p.Digest(), round: r})
				return p
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}

	log := newCommitLog()
	committed := make(map[types.ReplicaID]map[[32]byte]int)
	hooks := log.hooks()
	record := hooks.OnCommit
	hooks.OnCommit = func(node types.ReplicaID, at time.Time, c protocol.Commit) {
		record(node, at, c)
		if committed[node] == nil {
			committed[node] = make(map[[32]byte]int)
		}
		for _, b := range c.Blocks {
			if b.Payload.Size() > 0 {
				committed[node][b.Payload.Digest()]++
			}
		}
	}
	net, err := simnet.New(engines, simnet.Options{Topology: wan.Uniform(params.N, oneWay), Seed: 3}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range crashed {
		net.CrashAt(id, 0)
	}
	net.Run(20 * time.Second)

	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	log.checkPrefixConsistent(t)

	var carried int64
	final := types.Round(1 << 62)
	for node := range committed {
		carried += engines[node].Metrics()["payloads_carried"]
		if fin := engines[node].(*core.Engine).Tree().FinalizedRound(); fin < final {
			final = fin
		}
	}
	if len(committed) != params.N-len(crashed) || final < 100 {
		t.Fatalf("%d replicas committed through round %d; the scenario did not run", len(committed), final)
	}
	if carried < int64(final) {
		t.Fatalf("%d payloads carried over %d rounds; the scenario orphans at least one proposal a round", carried, final)
	}

	var checked int
	for id, hs := range handed {
		for _, h := range hs {
			for node, counts := range committed {
				n := counts[h.digest]
				if n > 1 {
					t.Fatalf("replica %d committed a payload of replica %d (drawn for round %d) %d times", node, id, h.round, n)
				}
				if n == 0 && h.round+tail <= final {
					t.Fatalf("replica %d never committed a payload of replica %d drawn for round %d (finalized through %d)",
						node, id, h.round, final)
				}
			}
			checked++
		}
	}
	t.Logf("%d rounds finalized, %d payloads handed out, %d carried", final, checked, carried)
}

// chainDigest hashes a committed block-ID sequence.
func chainDigest(chain []types.BlockID) string {
	h := sha256.New()
	for _, id := range chain {
		h.Write(id[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestNoOrphanChainUnchanged pins the chain of a run in which nothing is
// orphaned (Δ well above the delay: one proposal a round) to the chain the
// same seed produced before payloads were carried and before the validator
// set became the only leader schedule: neither may move a block.
func TestNoOrphanChainUnchanged(t *testing.T) {
	const want = "999c7378197918c0c7d477798dd9ab88822e3b5eec1deefad4e9a6a54118861c"
	params := types.Params{N: 4, F: 1, P: 1}
	engines := makeBanyanEngines(t, params, 60*time.Millisecond, 1024, false)
	log := newCommitLog()
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(4, 25*time.Millisecond),
		Seed:     1,
	}, log.hooks())
	if err != nil {
		t.Fatal(err)
	}
	net.Run(5 * time.Second)
	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	for i, e := range engines {
		if m := e.Metrics(); m["payloads_carried"] != 0 || m["proposals"] == 0 {
			t.Fatalf("replica %d: %d proposals, %d payloads carried; the run should orphan nothing",
				i, m["proposals"], m["payloads_carried"])
		}
	}
	chain := log.chains[0]
	if len(chain) < 40 {
		t.Fatalf("replica 0 committed only %d blocks", len(chain))
	}
	if got := chainDigest(chain); got != want {
		t.Fatalf("chain of %d blocks digests to %s, want %s", len(chain), got, want)
	}
}
