package core

import (
	"testing"
	"time"

	"banyan/internal/crypto"
	"banyan/internal/dissem"
	"banyan/internal/mempool"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// fuzzConfig is the configuration every engine of the seed run and the
// fuzzed engine share: n=4 with dissemination, and a short prune window
// so a lagging replica needs a snapshot.
func fuzzConfig(self types.ReplicaID, keyring *crypto.Keyring, signers []*crypto.Signer, source dissem.Source) Config {
	return Config{
		Params: p411, Self: self, Keyring: keyring, Signer: signers[self],
		Delta: rigDelta, PruneKeep: 4, DeepPrune: true,
		Dissem: dissem.NewStore(dissem.Config{Self: self, N: p411.N, BatchBytes: 256, BlockBytes: 1024, Source: source}),
	}
}

// inboundSeeds runs four engines on the simulated network and returns the
// first frame of each message kind one replica delivered to another, with
// its sender. Replica 3 hears nothing for the first 600 ms, so it falls
// behind the others' prune window and catches up through a snapshot;
// replica 2 never receives a proposal from its proposer, so it pulls
// every block it votes for.
func inboundSeeds(tb testing.TB, keyring *crypto.Keyring, signers []*crypto.Signer) map[types.MsgKind]fuzzSeed {
	engines := make([]protocol.Engine, p411.N)
	for i := range engines {
		source := mempool.NewSynthetic(200, uint64(i), true)
		eng, err := New(fuzzConfig(types.ReplicaID(i), keyring, signers, source))
		if err != nil {
			tb.Fatal(err)
		}
		engines[i] = eng
	}
	seeds := make(map[types.MsgKind]fuzzSeed)
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(p411.N, 2*time.Millisecond),
		Filter: func(_, to types.ReplicaID, msg types.Message, at time.Time) bool {
			if to == 3 && at.Sub(simnet.Epoch) < 600*time.Millisecond {
				return false
			}
			p, ok := msg.(*types.Proposal)
			return to != 2 || !ok || p.Block == nil || p.Relayed
		},
	}, simnet.Hooks{
		OnDeliver: func(from, _ types.ReplicaID, _ time.Time, msg types.Message) {
			if _, ok := seeds[msg.Kind()]; ok {
				return
			}
			frame, err := types.EncodeMessage(msg)
			if err != nil {
				tb.Fatal(err)
			}
			seeds[msg.Kind()] = fuzzSeed{from: from, frame: frame}
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	net.Run(time.Second)
	return seeds
}

type fuzzSeed struct {
	from  types.ReplicaID
	frame []byte
}

// FuzzInboundMessage feeds arbitrary bytes down the path a TCP replica
// runs on every frame: types.DecodeMessageInPlace, then HandleMessage on
// a freshly started n=4 engine. Whatever the bytes and whichever peer
// sent them, the engine must not panic and must not report a safety
// fault — one peer's frame cannot prove two conflicting finalizations.
// The corpus starts from one frame of every kind a real run delivered.
func FuzzInboundMessage(f *testing.F) {
	keyring, signers := crypto.GenerateCluster(crypto.Ed25519(), p411.N, 5)
	seeds := inboundSeeds(f, keyring, signers)
	for _, kind := range []types.MsgKind{
		types.MsgProposal, types.MsgVote, types.MsgCert, types.MsgAdvance,
		types.MsgSyncRequest, types.MsgSyncResponse,
		types.MsgSnapshotRequest, types.MsgSnapshotResponse,
		types.MsgBatchAnnounce, types.MsgBatchRequest, types.MsgBatchResponse,
		types.MsgBlockRequest,
	} {
		s, ok := seeds[kind]
		if !ok {
			f.Fatalf("the seed run delivered no %v", kind)
		}
		f.Add(uint8(s.from), s.frame)
	}
	f.Fuzz(func(t *testing.T, from uint8, frame []byte) {
		msg, err := types.DecodeMessageInPlace(frame)
		if err != nil {
			return
		}
		eng, err := New(fuzzConfig(0, keyring, signers, nil))
		if err != nil {
			t.Fatal(err)
		}
		now := time.Unix(0, 0)
		eng.Start(now)
		sender := types.ReplicaID(1 + int(from)%(p411.N-1))
		for _, a := range eng.HandleMessage(sender, msg, now.Add(rigDelta)) {
			if fault, ok := a.(protocol.SafetyFault); ok {
				t.Fatalf("%v from replica %d: safety fault %v", msg.Kind(), sender, fault.Err)
			}
		}
	})
}
