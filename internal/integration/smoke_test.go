// Package integration_test runs whole-cluster executions of every engine
// on the discrete-event simulator and checks the protocol properties of
// paper section 5: deadlock-freeness (chain growth), safety (consistent
// finalized prefixes) and liveness (leader blocks finalize in synchrony).
package integration_test

import (
	"os"
	"strconv"
	"testing"
	"time"

	"banyan/internal/core"
	"banyan/internal/crypto"
	"banyan/internal/icc"
	"banyan/internal/membership"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

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

// commitLog records each replica's committed block sequence.
type commitLog struct {
	chains map[types.ReplicaID][]types.BlockID
	faults []error
}

func newCommitLog() *commitLog {
	return &commitLog{chains: make(map[types.ReplicaID][]types.BlockID)}
}

func (l *commitLog) hooks() simnet.Hooks {
	return simnet.Hooks{
		OnCommit: func(node types.ReplicaID, _ time.Time, c protocol.Commit) {
			for _, b := range c.Blocks {
				l.chains[node] = append(l.chains[node], b.ID())
			}
		},
		OnFault: func(_ types.ReplicaID, _ time.Time, err error) {
			l.faults = append(l.faults, err)
		},
	}
}

// checkPrefixConsistent fails the test if any two replicas' committed
// sequences disagree on a common prefix (the safety property).
func (l *commitLog) checkPrefixConsistent(t *testing.T) {
	t.Helper()
	var ref []types.BlockID
	var refNode types.ReplicaID
	for node, chain := range l.chains {
		if len(chain) > len(ref) {
			ref, refNode = chain, node
		}
	}
	for node, chain := range l.chains {
		for i, id := range chain {
			if ref[i] != id {
				t.Fatalf("safety violation: replica %d commit[%d] = %s, replica %d has %s",
					node, i, id, refNode, ref[i])
			}
		}
	}
}

func makeBanyanEngines(t *testing.T, params types.Params, delta time.Duration,
	payload int, disableFast bool) []protocol.Engine {
	t.Helper()
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 42)
	engines := make([]protocol.Engine, params.N)
	for i := 0; i < params.N; i++ {
		id := types.ReplicaID(i)
		e, err := core.New(core.Config{
			Params:  params,
			Self:    id,
			Keyring: keyring,
			Signer:  signers[i],
			Delta:   delta,
			Payloads: protocol.PayloadFunc(func(r types.Round) types.Payload {
				return types.SyntheticPayload(payload, uint64(r)<<16|uint64(id))
			}),
			DisableFastPath: disableFast,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return engines
}

func makeICCEngines(t *testing.T, params types.Params, delta time.Duration, payload int) []protocol.Engine {
	t.Helper()
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 42)
	set, err := membership.Genesis(keyring, params)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]protocol.Engine, params.N)
	for i := 0; i < params.N; i++ {
		id := types.ReplicaID(i)
		e, err := icc.New(icc.Config{
			Set:     set,
			Self:    id,
			Keyring: keyring,
			Signer:  signers[i],
			Delta:   delta,
			Payloads: protocol.PayloadFunc(func(r types.Round) types.Payload {
				return types.SyntheticPayload(payload, uint64(r)<<16|uint64(id))
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return engines
}

func TestBanyanSmokeN4(t *testing.T) {
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
	net.Run(10 * time.Second)

	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	log.checkPrefixConsistent(t)
	for i := 0; i < params.N; i++ {
		m := engines[i].Metrics()
		if m["blocks_commit"] < 50 {
			t.Errorf("replica %d committed only %d blocks in 10s", i, m["blocks_commit"])
		}
		if m["final_fast"] == 0 {
			t.Errorf("replica %d never used the fast path", i)
		}
		t.Logf("replica %d: %v", i, m)
	}
}

func TestICCSmokeN4(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 0}
	engines := makeICCEngines(t, params, 60*time.Millisecond, 1024)
	log := newCommitLog()
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(4, 25*time.Millisecond),
		Seed:     1,
	}, log.hooks())
	if err != nil {
		t.Fatal(err)
	}
	net.Run(10 * time.Second)

	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	log.checkPrefixConsistent(t)
	for i := 0; i < params.N; i++ {
		m := engines[i].Metrics()
		if m["blocks_commit"] < 50 {
			t.Errorf("replica %d committed only %d blocks in 10s", i, m["blocks_commit"])
		}
		t.Logf("replica %d: %v", i, m)
	}
}
