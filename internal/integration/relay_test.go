package integration_test

import (
	"fmt"
	"math/rand"
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

// Whole-cluster battery for header relays and body pulls: on the honest,
// loss-free path the relay is pure header traffic and the pull never
// fires; under a starving link, a withholding holder, or random loss the
// pull is what keeps every replica voting — and none of it may cost
// safety.

// makeRelayEngines builds Banyan engines with 64 KiB synthetic payloads
// (deterministic per round and replica, so same-seed runs produce the
// same blocks) and optional per-replica wrapping.
func makeRelayEngines(t *testing.T, params types.Params, noForwarding bool,
	wrap func(id types.ReplicaID, eng protocol.Engine) protocol.Engine) []protocol.Engine {
	t.Helper()
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 77)
	engines := make([]protocol.Engine, params.N)
	for i := range engines {
		id := types.ReplicaID(i)
		eng, err := core.New(core.Config{
			Params: params, Self: id, Keyring: keyring, Signer: signers[i],
			Delta: 50 * time.Millisecond,
			Payloads: protocol.PayloadFunc(func(r types.Round) types.Payload {
				return types.SyntheticPayload(64<<10, uint64(r)<<16|uint64(id))
			}),
			DisableForwarding: noForwarding,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
		if wrap != nil {
			engines[i] = wrap(id, eng)
		}
	}
	return engines
}

func sumMetric(engines []protocol.Engine, key string) (total int64) {
	for _, e := range engines {
		total += e.Metrics()[key]
	}
	return
}

// TestHeaderRelaySameSeedEquivalence: loss-free, the relay is invisible
// to the outcome — the same seed finalizes the same block at every round
// with header relays as with no forwarding at all, no body is ever
// pulled, and what the relays put on the wire is headers: a few hundred
// bytes each under 64 KiB blocks. At n=4 a round is finalized when its
// replicas leave it, so no finalization votes flow and late traffic is
// dropped as settled; at n=7 and n=19 replicas leave on the notarization
// quorum, ahead of the fast quorum, and the finalization votes flow as
// ever. The outcome is the same block per round at every size.
func TestHeaderRelaySameSeedEquivalence(t *testing.T) {
	for _, tc := range []struct {
		params types.Params
		span   time.Duration
		rounds int
	}{
		{types.Params{N: 4, F: 1, P: 1}, 10 * time.Second, 100},
		{types.Params{N: 7, F: 2, P: 1}, 5 * time.Second, 50},
		{types.Params{N: 19, F: 6, P: 1}, 2 * time.Second, 20},
	} {
		t.Run(fmt.Sprintf("n%d", tc.params.N), func(t *testing.T) {
			headerRelayEquivalence(t, tc.params, tc.span, tc.rounds)
		})
	}
}

func headerRelayEquivalence(t *testing.T, params types.Params, span time.Duration, minRounds int) {
	type outcome struct {
		byRound    map[types.Round]types.BlockID
		engines    []protocol.Engine
		relayBytes int
		relayMsgs  int
	}
	run := func(noForwarding bool) outcome {
		out := outcome{byRound: make(map[types.Round]types.BlockID)}
		out.engines = makeRelayEngines(t, params, noForwarding, nil)
		log := newCommitLog()
		hooks := log.hooks()
		base := hooks.OnCommit
		hooks.OnCommit = func(node types.ReplicaID, at time.Time, c protocol.Commit) {
			for _, b := range c.Blocks {
				if prev, ok := out.byRound[b.Round]; ok && prev != b.ID() {
					t.Errorf("round %d finalized as %s and %s", b.Round, prev, b.ID())
				}
				out.byRound[b.Round] = b.ID()
			}
			base(node, at, c)
		}
		hooks.OnDeliver = func(_, _ types.ReplicaID, _ time.Time, msg types.Message) {
			if p, ok := msg.(*types.Proposal); ok && p.Relayed {
				if p.Block != nil {
					t.Errorf("a relay carried a body on the loss-free path: %v", p.Block)
				}
				out.relayBytes += types.WireSize(p)
				out.relayMsgs++
			}
		}
		net, err := simnet.New(out.engines, simnet.Options{
			Topology: wan.Uniform(params.N, 10*time.Millisecond),
			Seed:     41,
		}, hooks)
		if err != nil {
			t.Fatal(err)
		}
		net.Run(span)
		if len(log.faults) > 0 {
			t.Fatalf("faults (noForwarding=%v): %v", noForwarding, log.faults)
		}
		log.checkPrefixConsistent(t)
		return out
	}

	relayed, bare := run(false), run(true)
	if len(relayed.byRound) < minRounds || len(bare.byRound) < minRounds {
		t.Fatalf("insufficient progress: %d and %d rounds", len(relayed.byRound), len(bare.byRound))
	}
	for r, id := range bare.byRound {
		if got, ok := relayed.byRound[r]; ok && got != id {
			t.Fatalf("round %d: header relays finalized %s, no forwarding %s", r, got, id)
		}
	}
	for _, key := range []string{"body_pulls", "body_pull_retries", "body_pulls_served", "body_pulls_refused"} {
		if n := sumMetric(relayed.engines, key) + sumMetric(bare.engines, key); n != 0 {
			t.Errorf("%s = %d on the loss-free path, want 0", key, n)
		}
	}
	// One line-35 relay per voter per round, as before — only smaller.
	rounds, voters := int64(len(relayed.byRound)), int64(params.N-1)
	if relays := sumMetric(relayed.engines, "relays"); relays < voters*(rounds-2) || relays > voters*(rounds+2) {
		t.Errorf("relays = %d over %d rounds, want %d per round", relays, rounds, voters)
	}
	if sumMetric(bare.engines, "relays") != 0 || bare.relayMsgs != 0 {
		t.Error("DisableForwarding still relayed")
	}
	if avg := relayed.relayBytes / relayed.relayMsgs; avg > 1024+96*params.N {
		t.Errorf("a relay averages %d bytes on the wire under 64 KiB blocks", avg)
	}
	// Line 51 is skipped exactly where the round is finalized on leaving
	// it: everywhere at n=4, nowhere when the fast quorum exceeds the
	// notarization quorum and votes arrive together.
	suppressed, advances := sumMetric(relayed.engines, "final_votes_suppressed"), sumMetric(relayed.engines, "advances")
	if params.FastQuorum() == params.NotarizationQuorum() {
		if suppressed < advances-int64(params.N) {
			t.Errorf("final_votes_suppressed = %d of %d advances at n=%d", suppressed, advances, params.N)
		}
	} else if suppressed != 0 {
		t.Errorf("final_votes_suppressed = %d at n=%d, where replicas leave before the fast quorum", suppressed, params.N)
	}
}

// TestPullWithholderStarvedReplicaRoutesAround (n=7): the link from
// replica 3 to replica 6 is dead, so 6 learns of 3's blocks only from
// header relays and must pull them — and not from 3. Replica 0, the
// relayer it hears first, relays and votes like everyone but answers no
// pull. The starved replica must route around both (rotate to the next
// known holder, then remember who stayed silent), keep voting in those
// rounds, and stay with the cluster. Chain-suffix sync would paper over
// the missing bodies once their rounds finalize, so its responses to the
// victim are dropped too: the pull path carries this alone.
func TestPullWithholderStarvedReplicaRoutesAround(t *testing.T) {
	params := types.Params{N: 7, F: 2, P: 1}
	const (
		withholder = types.ReplicaID(0)
		starver    = types.ReplicaID(3)
		victim     = types.ReplicaID(6)
	)
	var adversary *byzantine.PullWithholder
	engines := makeRelayEngines(t, params, false,
		func(id types.ReplicaID, eng protocol.Engine) protocol.Engine {
			if id == withholder {
				adversary = byzantine.NewPullWithholder(eng)
				return adversary
			}
			return eng
		})
	log := newCommitLog()
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(7, 10*time.Millisecond),
		Seed:     43,
		Filter: func(from, to types.ReplicaID, msg types.Message, _ time.Time) bool {
			_, sync := msg.(*types.SyncResponse)
			return !(to == victim && (from == starver || sync))
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
	m := engines[victim].Metrics()
	t.Logf("victim: pulls=%d retries=%d; withholder refused %d; served elsewhere %d",
		m["body_pulls"], m["body_pull_retries"], adversary.Refused(), sumMetric(engines, "body_pulls_served"))
	if adversary.Refused() == 0 || m["body_pull_retries"] == 0 {
		t.Fatal("no pull ever landed on the withholder — the scenario did not engage")
	}
	// Every starved round was pulled: one pull per round the starver led.
	led := engines[starver].Metrics()["proposals"]
	if m["body_pulls"] < led-2 {
		t.Errorf("victim pulled %d bodies, the starver proposed %d", m["body_pulls"], led)
	}
	// After its first timeout a silent peer is suspect, so it is not asked
	// again and again: retries stay well below pulls.
	if m["body_pull_retries"]*2 > m["body_pulls"] {
		t.Errorf("victim kept asking silent peers: %d retries for %d pulls", m["body_pull_retries"], m["body_pulls"])
	}
	major := engines[1].(*core.Engine).Tree().FinalizedRound()
	minor := engines[victim].(*core.Engine).Tree().FinalizedRound()
	if major < 200 || minor+20 < major {
		t.Errorf("victim finalized round %d, the cluster %d", minor, major)
	}
	if got := len(log.chains[victim]); got+20 < len(log.chains[1]) {
		t.Errorf("victim committed %d blocks, replica 1 %d", got, len(log.chains[1]))
	}
}

// TestHeaderRelayRandomizedLoss: 5 % of all messages dropped, heavy
// jitter, reordering on alternate trials. Lost proposals are now
// recovered by pulling, not by n redundant copies; agreement must hold in
// every trial, the cluster must keep committing, and across the trials
// the pull path must actually have run end to end.
func TestHeaderRelayRandomizedLoss(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	trials := propertyTrials(4)
	var pulls, served int64
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			engines := makeRelayEngines(t, params, false, nil)
			rng := rand.New(rand.NewSource(int64(5000 + trial)))
			log := newCommitLog()
			net, err := simnet.New(engines, simnet.Options{
				Topology:        wan.Uniform(4, 10*time.Millisecond),
				Seed:            uint64(300 + trial),
				JitterFrac:      1.5,
				AllowReordering: trial%2 == 0,
				Filter: func(_, _ types.ReplicaID, _ types.Message, _ time.Time) bool {
					return rng.Float64() >= 0.05
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
			if got := len(log.chains[0]); got < 100 {
				t.Errorf("committed only %d blocks under 5%% loss", got)
			}
			pulls += sumMetric(engines, "body_pulls")
			served += sumMetric(engines, "body_pulls_served")
		})
	}
	if pulls == 0 || served == 0 {
		t.Errorf("pull path never ran under loss: pulls=%d served=%d", pulls, served)
	}
}
