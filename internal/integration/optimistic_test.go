package integration_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"banyan/internal/byzantine"
	"banyan/internal/core"
	"banyan/internal/crypto"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// Whole-cluster safety battery for optimistic proposal pipelining
// (Moonshot mode): equivalence with the baseline under zero loss,
// randomized safety under delay/drop/reordering, and Byzantine leaders
// attacking the pipeline directly.

// propertyTrials mirrors the core package helper: BANYAN_PROPERTY_TRIALS
// scales the randomized batteries up for the long-mode CI job.
func propertyTrials(def int) int {
	if s := os.Getenv("BANYAN_PROPERTY_TRIALS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// makeOptimisticEngines is makeBanyanEngines with the pipelining knob and
// optional per-replica wrapping. Payloads are deterministic per
// (round, replica), so two runs over the same seed produce byte-identical
// blocks — the equivalence test depends on that.
func makeOptimisticEngines(t *testing.T, params types.Params, optimistic bool,
	wrap func(id types.ReplicaID, eng protocol.Engine, signer *crypto.Signer) protocol.Engine,
) []protocol.Engine {
	t.Helper()
	keyring, signers := crypto.GenerateCluster(crypto.Ed25519(), params.N, 99)
	engines := make([]protocol.Engine, params.N)
	for i := 0; i < params.N; i++ {
		id := types.ReplicaID(i)
		eng, err := core.New(core.Config{
			Params: params, Self: id, Keyring: keyring, Signer: signers[i],
			Delta: 50 * time.Millisecond,
			Payloads: protocol.PayloadFunc(func(r types.Round) types.Payload {
				return types.SyntheticPayload(512, uint64(r)<<16|uint64(id))
			}),
			OptimisticProposals: optimistic,
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

// sumOptMetrics totals the optimistic lifecycle counters across a cluster.
func sumOptMetrics(engines []protocol.Engine) (proposed, confirmed, withdrawn int64) {
	for _, e := range engines {
		m := e.Metrics()
		proposed += m["opt_proposed"]
		confirmed += m["opt_confirmed"]
		withdrawn += m["opt_withdrawn"]
	}
	return
}

// TestOptimisticSameSeedEquivalence: under zero loss, the knob is a pure
// latency optimization — the same seed must finalize the *identical*
// chain with and without it, every optimistic proposal confirming and
// none withdrawing.
func TestOptimisticSameSeedEquivalence(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	run := func(optimistic bool) (*commitLog, []protocol.Engine) {
		engines := makeOptimisticEngines(t, params, optimistic, nil)
		log := newCommitLog()
		net, err := simnet.New(engines, simnet.Options{
			Topology: wan.Uniform(4, 10*time.Millisecond),
			Seed:     21,
		}, log.hooks())
		if err != nil {
			t.Fatal(err)
		}
		net.Run(20 * time.Second)
		if len(log.faults) > 0 {
			t.Fatalf("faults (optimistic=%v): %v", optimistic, log.faults)
		}
		log.checkPrefixConsistent(t)
		return log, engines
	}

	base, _ := run(false)
	opt, engines := run(true)

	baseChain, optChain := base.chains[0], opt.chains[0]
	if len(baseChain) < 100 || len(optChain) < 100 {
		t.Fatalf("insufficient progress: baseline=%d optimistic=%d blocks", len(baseChain), len(optChain))
	}
	n := len(baseChain)
	if len(optChain) < n {
		n = len(optChain)
	}
	for i := 0; i < n; i++ {
		if baseChain[i] != optChain[i] {
			t.Fatalf("chains diverge at %d: baseline %s vs optimistic %s", i, baseChain[i], optChain[i])
		}
	}
	proposed, confirmed, withdrawn := sumOptMetrics(engines)
	if confirmed == 0 {
		t.Error("no optimistic proposal ever confirmed — the pipeline never engaged")
	}
	if withdrawn != 0 {
		t.Errorf("%d optimistic proposals withdrawn under zero loss, want 0", withdrawn)
	}
	// Every optimistic proposal confirms, except any still awaiting its
	// parent's certificate when the simulation stops.
	if proposed < confirmed || proposed-confirmed > int64(params.N) {
		t.Errorf("proposed=%d confirmed=%d under zero loss, want equal up to in-flight tail", proposed, confirmed)
	}
}

// TestOptimisticRandomizedSafety: randomized delay spread, message
// reordering, and ~8%% message drop across seeded trials — agreement must
// hold in every one, and the cluster must keep committing. Withdrawals
// are expected here (drops can certify a parent the leader did not
// guess); what must never happen is a safety fault or fork.
func TestOptimisticRandomizedSafety(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	trials := propertyTrials(6)
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			engines := makeOptimisticEngines(t, params, true, nil)
			// Seeded drop filter: simnet is single-threaded, so the closure's
			// rng keeps trials deterministic.
			rng := rand.New(rand.NewSource(int64(3000 + trial)))
			log := newCommitLog()
			net, err := simnet.New(engines, simnet.Options{
				Topology:        wan.Uniform(4, 10*time.Millisecond),
				Seed:            uint64(100 + trial),
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
				t.Errorf("committed only %d blocks under loss", got)
			}
		})
	}
}

// TestOptimisticEquivocatingLeader: a Byzantine leader equivocates
// through the optimistic pipeline itself — conflicting bare bodies to the
// two cluster halves, then conflicting confirmation fast votes. Honest
// replicas must never fast-commit either twin (n=7, p=1: a fast quorum
// of 6 cannot form from a 3-replica half plus the adversary), at most
// one twin per round may commit at all, and the cluster keeps going.
func TestOptimisticEquivocatingLeader(t *testing.T) {
	params := types.Params{N: 7, F: 2, P: 1}
	const evil = types.ReplicaID(2)
	var adversary *byzantine.OptimisticEquivocator
	engines := makeOptimisticEngines(t, params, true,
		func(id types.ReplicaID, eng protocol.Engine, signer *crypto.Signer) protocol.Engine {
			if id == evil {
				adversary = byzantine.NewOptimisticEquivocator(eng, signer, params.N)
				return adversary
			}
			return eng
		})
	honest := map[types.ReplicaID]bool{0: true, 1: true, 3: true, 4: true, 5: true, 6: true}

	// Track every fast-committed block at honest replicas: no equivocated
	// twin may ever appear with FinalizeFast.
	fastCommitted := make(map[types.BlockID]bool)
	log := newCommitLog()
	hooks := log.hooks()
	baseCommit := hooks.OnCommit
	hooks.OnCommit = func(node types.ReplicaID, at time.Time, c protocol.Commit) {
		if honest[node] && c.Explicit == protocol.FinalizeFast && len(c.Blocks) > 0 {
			fastCommitted[c.Blocks[len(c.Blocks)-1].ID()] = true
		}
		baseCommit(node, at, c)
	}
	hooks.OnFault = func(node types.ReplicaID, _ time.Time, err error) {
		if honest[node] {
			t.Errorf("safety fault at honest replica %d: %v", node, err)
		}
	}
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(7, 10*time.Millisecond),
		Seed:     31,
	}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(25 * time.Second)

	log.checkPrefixConsistent(t)
	for id := range honest {
		if got := len(log.chains[id]); got < 80 {
			t.Errorf("honest replica %d committed only %d blocks under optimistic equivocation", id, got)
		}
	}
	pairs := adversary.Pairs()
	if len(pairs) == 0 {
		t.Fatal("adversary never equivocated — the scenario did not engage")
	}
	committed := make(map[types.BlockID]bool)
	for _, id := range log.chains[0] {
		committed[id] = true
	}
	for orig, twin := range pairs {
		if fastCommitted[orig] || fastCommitted[twin] {
			t.Errorf("equivocated block fast-committed: orig=%v twin=%v", fastCommitted[orig], fastCommitted[twin])
		}
		if committed[orig] && committed[twin] {
			t.Errorf("both equivocated twins committed: %s and %s", orig, twin)
		}
	}
}

// TestOptimisticStaleParentLeader: a Byzantine leader re-targets its
// rank-0 proposals at the grandparent — a finalized but superseded
// extension point — with its fast vote re-signed for the forgery. The
// extension rule (a rank-0 block must extend the previous round) must
// hold: no forged block ever commits, no honest replica faults, and the
// adversary only costs the cluster its own rounds' fast path.
func TestOptimisticStaleParentLeader(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	const evil = types.ReplicaID(2)
	var adversary *byzantine.StaleParentLeader
	engines := makeOptimisticEngines(t, params, true,
		func(id types.ReplicaID, eng protocol.Engine, signer *crypto.Signer) protocol.Engine {
			if id == evil {
				adversary = byzantine.NewStaleParentLeader(eng, signer)
				return adversary
			}
			return eng
		})
	honest := map[types.ReplicaID]bool{0: true, 1: true, 3: true}
	log := runAdversarial(t, engines, simnet.Options{
		Topology: wan.Uniform(4, 10*time.Millisecond),
		Seed:     32,
	}, 25*time.Second, honest)

	log.checkPrefixConsistent(t)
	for id := range honest {
		if got := len(log.chains[id]); got < 80 {
			t.Errorf("honest replica %d committed only %d blocks under stale-parent attack", id, got)
		}
	}
	forged := adversary.ForgedIDs()
	if len(forged) == 0 {
		t.Fatal("adversary never forged a stale-parent proposal — the scenario did not engage")
	}
	committed := make(map[types.BlockID]bool)
	for _, chain := range log.chains {
		for _, id := range chain {
			committed[id] = true
		}
	}
	for _, id := range forged {
		if committed[id] {
			t.Errorf("stale-parent block %s was committed", id)
		}
	}
}
