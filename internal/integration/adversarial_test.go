package integration_test

import (
	"testing"
	"time"

	"banyan/internal/byzantine"
	"banyan/internal/core"
	"banyan/internal/crypto"
	"banyan/internal/icc"
	"banyan/internal/membership"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// buildCluster assembles engines for one protocol with optional per-replica
// wrapping (for adversaries). Byzantine tests use Ed25519 so forgery is
// actually impossible, not just unattempted.
func buildCluster(t *testing.T, params types.Params, proto string,
	wrap func(id types.ReplicaID, eng protocol.Engine, signer *crypto.Signer) protocol.Engine,
) []protocol.Engine {
	t.Helper()
	keyring, signers := crypto.GenerateCluster(crypto.Ed25519(), params.N, 99)
	set, err := membership.Genesis(keyring, params)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]protocol.Engine, params.N)
	for i := 0; i < params.N; i++ {
		id := types.ReplicaID(i)
		var eng protocol.Engine
		switch proto {
		case "banyan":
			eng, err = core.New(core.Config{
				Params: params, Self: id, Keyring: keyring, Signer: signers[i],
				Delta: 50 * time.Millisecond,
				Payloads: protocol.PayloadFunc(func(r types.Round) types.Payload {
					return types.SyntheticPayload(512, uint64(r)<<16|uint64(id))
				}),
			})
		case "icc":
			eng, err = icc.New(icc.Config{
				Set: set, Self: id, Keyring: keyring, Signer: signers[i],
				Delta: 50 * time.Millisecond,
			})
		default:
			t.Fatalf("unknown protocol %q", proto)
		}
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			eng = wrap(id, eng, signers[i])
		}
		engines[i] = eng
	}
	return engines
}

// runAdversarial runs a cluster and returns the per-replica commit log.
func runAdversarial(t *testing.T, engines []protocol.Engine, opts simnet.Options,
	d time.Duration, honestFaultsFatal map[types.ReplicaID]bool) *commitLog {
	t.Helper()
	log := newCommitLog()
	hooks := log.hooks()
	base := hooks.OnFault
	hooks.OnFault = func(node types.ReplicaID, at time.Time, err error) {
		if honestFaultsFatal == nil || honestFaultsFatal[node] {
			t.Errorf("safety fault at honest replica %d: %v", node, err)
		}
		base(node, at, err)
	}
	net, err := simnet.New(engines, opts, hooks)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(d)
	return log
}

// TestBanyanEquivocatingLeader: with one equivocating leader (f=1, n=4),
// honest replicas never finalize conflicting blocks and keep making
// progress; the Byzantine replica's rounds may resolve via Condition 2.
func TestBanyanEquivocatingLeader(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	const evil = types.ReplicaID(2)
	engines := buildCluster(t, params, "banyan",
		func(id types.ReplicaID, eng protocol.Engine, signer *crypto.Signer) protocol.Engine {
			if id == evil {
				return byzantine.NewEquivocatingLeader(eng, signer, params.N)
			}
			return eng
		})
	honest := map[types.ReplicaID]bool{0: true, 1: true, 3: true}
	log := runAdversarial(t, engines, simnet.Options{
		Topology: wan.Uniform(4, 10*time.Millisecond),
		Seed:     5,
	}, 20*time.Second, honest)

	log.checkPrefixConsistent(t)
	for id := range honest {
		if got := len(log.chains[id]); got < 100 {
			t.Errorf("honest replica %d committed only %d blocks under equivocation", id, got)
		}
	}
	// The equivocator actually equivocated: at least one of its rounds has
	// two blocks stored at an honest replica.
	tree := engines[0].(*core.Engine).Tree()
	set := engines[0].(*core.Engine).History().Genesis()
	sawEquivocation := false
	for round := types.Round(1); round < 40 && !sawEquivocation; round++ {
		if set.Leader(round) == evil && len(tree.AtRound(round)) > 1 {
			sawEquivocation = true
		}
	}
	if !sawEquivocation {
		t.Log("note: equivocation not observed in replica 0's tree (may have been pruned)")
	}
}

// TestStaleParentLeader: a Byzantine leader re-targets its rank-0
// proposals at the grandparent — a finalized but superseded extension
// point — with its fast vote re-signed for the forgery. The extension
// rule (a rank-0 block must extend the previous round) must hold: no
// forged block ever commits, no honest replica faults, and the adversary
// only costs the cluster its own rounds' fast path.
func TestStaleParentLeader(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	const evil = types.ReplicaID(2)
	var adversary *byzantine.StaleParentLeader
	engines := buildCluster(t, params, "banyan",
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

// TestICCEquivocatingLeader: the ICC baseline also survives equivocation.
func TestICCEquivocatingLeader(t *testing.T) {
	params := types.Params{N: 4, F: 1}
	const evil = types.ReplicaID(1)
	engines := buildCluster(t, params, "icc",
		func(id types.ReplicaID, eng protocol.Engine, signer *crypto.Signer) protocol.Engine {
			if id == evil {
				return byzantine.NewEquivocatingLeader(eng, signer, params.N)
			}
			return eng
		})
	honest := map[types.ReplicaID]bool{0: true, 2: true, 3: true}
	log := runAdversarial(t, engines, simnet.Options{
		Topology: wan.Uniform(4, 10*time.Millisecond),
		Seed:     6,
	}, 20*time.Second, honest)
	log.checkPrefixConsistent(t)
	for id := range honest {
		if got := len(log.chains[id]); got < 100 {
			t.Errorf("honest replica %d committed only %d blocks", id, got)
		}
	}
}

// TestBanyanVoteWithholders: with p+1 replicas withholding fast votes, the
// fast path goes dark but the integrated slow path carries every round —
// the "no switching cost" property (Figure 2).
func TestBanyanVoteWithholders(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	withholders := map[types.ReplicaID]bool{2: true, 3: true} // p+1 = 2
	engines := buildCluster(t, params, "banyan",
		func(id types.ReplicaID, eng protocol.Engine, signer *crypto.Signer) protocol.Engine {
			if withholders[id] {
				return byzantine.NewVoteWithholder(eng, signer)
			}
			return eng
		})
	log := runAdversarial(t, engines, simnet.Options{
		Topology: wan.Uniform(4, 10*time.Millisecond),
		Seed:     7,
	}, 30*time.Second, map[types.ReplicaID]bool{0: true, 1: true})
	log.checkPrefixConsistent(t)

	m := engines[0].Metrics()
	if m["final_fast"] != 0 {
		t.Errorf("fast path fired %d times with %d withholders (> p)", m["final_fast"], len(withholders))
	}
	if m["blocks_commit"] < 50 {
		t.Errorf("slow path committed only %d blocks", m["blocks_commit"])
	}
	// The withholders' header relays arrive whole: stripping the fast vote
	// from a relay keeps its header.
	for _, id := range []types.ReplicaID{0, 1} {
		if got := engines[id].Metrics()["rejected"]; got != 0 {
			t.Errorf("honest replica %d rejected %d messages", id, got)
		}
	}
}

// TestBanyanMuteReplica: a replica that goes mute mid-run (mute fault, not
// crash: it keeps receiving) does not stop the cluster, and the fast path
// continues when the mute count stays within p... here p=1 and one mute,
// so fast finalization keeps firing for the remaining replicas.
func TestBanyanMuteReplica(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	engines := buildCluster(t, params, "banyan",
		func(id types.ReplicaID, eng protocol.Engine, signer *crypto.Signer) protocol.Engine {
			if id == 3 {
				return byzantine.NewSilent(eng, simnet.Epoch.Add(5*time.Second))
			}
			return eng
		})
	log := runAdversarial(t, engines, simnet.Options{
		Topology: wan.Uniform(4, 10*time.Millisecond),
		Seed:     8,
	}, 25*time.Second, map[types.ReplicaID]bool{0: true, 1: true, 2: true})
	log.checkPrefixConsistent(t)

	m := engines[0].Metrics()
	if m["blocks_commit"] < 100 {
		t.Errorf("committed only %d blocks with one mute replica", m["blocks_commit"])
	}
	if m["final_fast"] < m["final_slow"] {
		t.Errorf("fast path should dominate with exactly p mute replicas: fast=%d slow=%d",
			m["final_fast"], m["final_slow"])
	}
}

// TestBanyanCrashF: crashing f replicas (the paper's crash-fault model,
// Figure 6d) leaves a live, safe cluster; rounds led by crashed replicas
// recover via the rank-1 proposal after the 2Δ timeout.
func TestBanyanCrashF(t *testing.T) {
	params := types.Params{N: 7, F: 2, P: 1}
	engines := makeBanyanEngines(t, params, 50*time.Millisecond, 512, false)
	log := newCommitLog()
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(7, 10*time.Millisecond),
		Seed:     9,
	}, log.hooks())
	if err != nil {
		t.Fatal(err)
	}
	net.CrashAt(1, 2*time.Second)
	net.CrashAt(4, 2*time.Second)
	net.Run(30 * time.Second)

	if len(log.faults) > 0 {
		t.Fatalf("faults: %v", log.faults)
	}
	log.checkPrefixConsistent(t)
	m := engines[0].Metrics()
	if m["blocks_commit"] < 100 {
		t.Errorf("committed only %d blocks after crashing f replicas", m["blocks_commit"])
	}
}

// TestBanyanPartitionHeal: a minority partition stalls no one; after the
// partition heals, the isolated replica catches up to a consistent chain.
func TestBanyanPartitionHeal(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	engines := makeBanyanEngines(t, params, 50*time.Millisecond, 512, false)
	cut := func(at time.Time) bool {
		from := simnet.Epoch.Add(3 * time.Second)
		to := simnet.Epoch.Add(8 * time.Second)
		return !at.Before(from) && at.Before(to)
	}
	log := newCommitLog()
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(4, 10*time.Millisecond),
		Seed:     10,
		Filter: func(from, to types.ReplicaID, _ types.Message, at time.Time) bool {
			if (from == 3 || to == 3) && cut(at) {
				return false
			}
			return true
		},
	}, log.hooks())
	if err != nil {
		t.Fatal(err)
	}
	net.Run(30 * time.Second)

	if len(log.faults) > 0 {
		t.Fatalf("faults: %v", log.faults)
	}
	log.checkPrefixConsistent(t)
	// The partitioned replica must have caught up to within a few rounds
	// of the majority.
	major := engines[0].(*core.Engine).Tree().FinalizedRound()
	minor := engines[3].(*core.Engine).Tree().FinalizedRound()
	if minor+20 < major {
		t.Errorf("partitioned replica at round %d, majority at %d: did not catch up", minor, major)
	}
	if major < 100 {
		t.Errorf("majority stalled during partition: round %d", major)
	}
}

// TestBanyanMessageReordering: with per-link FIFO disabled and heavy
// jitter (adversarial scheduling), safety and liveness still hold —
// Remark 8.3 only claims latency, not correctness, depends on ordering.
func TestBanyanMessageReordering(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	engines := makeBanyanEngines(t, params, 50*time.Millisecond, 512, false)
	log := newCommitLog()
	net, err := simnet.New(engines, simnet.Options{
		Topology:        wan.Uniform(4, 10*time.Millisecond),
		Seed:            11,
		JitterFrac:      2.0, // up to 3x delay spread
		AllowReordering: true,
	}, log.hooks())
	if err != nil {
		t.Fatal(err)
	}
	net.Run(20 * time.Second)
	if len(log.faults) > 0 {
		t.Fatalf("faults: %v", log.faults)
	}
	log.checkPrefixConsistent(t)
	if m := engines[0].Metrics(); m["blocks_commit"] < 50 {
		t.Errorf("committed only %d blocks under reordering", m["blocks_commit"])
	}
}

// TestExperimentDeterminism: the full harness is reproducible — identical
// seeds give identical measurements.
func TestExperimentDeterminism(t *testing.T) {
	run := func() (time.Duration, int64) {
		params := types.Params{N: 4, F: 1, P: 1}
		engines := makeBanyanEngines(t, params, 60*time.Millisecond, 4096, false)
		var commits int64
		var last time.Time
		net, err := simnet.New(engines, simnet.Options{
			Topology:   wan.Uniform(4, 25*time.Millisecond),
			Seed:       42,
			JitterFrac: 0.2,
		}, simnet.Hooks{
			OnCommit: func(node types.ReplicaID, at time.Time, c protocol.Commit) {
				if node == 0 {
					commits += int64(len(c.Blocks))
					last = at
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		net.Run(10 * time.Second)
		return last.Sub(simnet.Epoch), commits
	}
	t1, c1 := run()
	t2, c2 := run()
	if t1 != t2 || c1 != c2 {
		t.Fatalf("non-deterministic: (%v, %d) vs (%v, %d)", t1, c1, t2, c2)
	}
}

// TestBanyanColdReplicaJoins: a replica that is unreachable from the very
// start (it sees nothing of rounds 1..k) joins late purely through
// catch-up and ends consistent.
func TestBanyanColdReplicaJoins(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	engines := makeBanyanEngines(t, params, 50*time.Millisecond, 512, false)
	log := newCommitLog()
	healAt := simnet.Epoch.Add(10 * time.Second)
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(4, 10*time.Millisecond),
		Seed:     13,
		Filter: func(from, to types.ReplicaID, _ types.Message, at time.Time) bool {
			return !((from == 2 || to == 2) && at.Before(healAt))
		},
	}, log.hooks())
	if err != nil {
		t.Fatal(err)
	}
	net.Run(25 * time.Second)

	if len(log.faults) > 0 {
		t.Fatalf("faults: %v", log.faults)
	}
	log.checkPrefixConsistent(t)
	major := engines[0].(*core.Engine).Tree().FinalizedRound()
	cold := engines[2].(*core.Engine).Tree().FinalizedRound()
	if cold+20 < major {
		t.Errorf("cold replica at round %d, majority at %d", cold, major)
	}
}
