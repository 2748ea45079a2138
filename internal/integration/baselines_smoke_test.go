package integration_test

import (
	"testing"
	"time"

	"banyan/internal/crypto"
	"banyan/internal/hotstuff"
	"banyan/internal/membership"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/streamlet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

func makeHotStuffEngines(t *testing.T, params types.Params, payload int) []protocol.Engine {
	t.Helper()
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 42)
	set, err := membership.Genesis(keyring, params)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]protocol.Engine, params.N)
	for i := 0; i < params.N; i++ {
		id := types.ReplicaID(i)
		e, err := hotstuff.New(hotstuff.Config{
			Set:     set,
			Self:    id,
			Keyring: keyring,
			Signer:  signers[i],
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

func makeStreamletEngines(t *testing.T, params types.Params, epoch time.Duration, payload int) []protocol.Engine {
	t.Helper()
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 42)
	set, err := membership.Genesis(keyring, params)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]protocol.Engine, params.N)
	for i := 0; i < params.N; i++ {
		id := types.ReplicaID(i)
		e, err := streamlet.New(streamlet.Config{
			Set:           set,
			Self:          id,
			Keyring:       keyring,
			Signer:        signers[i],
			EpochDuration: epoch,
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

func TestHotStuffSmokeN4(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 0}
	engines := makeHotStuffEngines(t, params, 1024)
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

func TestStreamletSmokeN4(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 0}
	engines := makeStreamletEngines(t, params, 120*time.Millisecond, 1024)
	log := newCommitLog()
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(4, 25*time.Millisecond),
		Seed:     1,
	}, log.hooks())
	if err != nil {
		t.Fatal(err)
	}
	net.Run(20 * time.Second)

	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	log.checkPrefixConsistent(t)
	for i := 0; i < params.N; i++ {
		m := engines[i].Metrics()
		if m["blocks_commit"] < 30 {
			t.Errorf("replica %d committed only %d blocks in 20s", i, m["blocks_commit"])
		}
		t.Logf("replica %d: %v", i, m)
	}
}
