package wal

import (
	"testing"
	"time"

	"banyan/internal/beacon"
	"banyan/internal/core"
	"banyan/internal/crypto"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// relayCluster builds n=4 Banyan engines proposing inline (concrete)
// payloads of the given size.
func relayCluster(t *testing.T, payload int) (func(id types.ReplicaID) *core.Engine, []*crypto.Signer) {
	t.Helper()
	params := types.Params{N: 4, F: 1, P: 1}
	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 42)
	return func(id types.ReplicaID) *core.Engine {
		e, err := core.New(core.Config{
			Params: params, Self: id, Keyring: keyring, Signer: signers[id],
			Delta: 10 * time.Millisecond,
			Payloads: protocol.PayloadFunc(func(r types.Round) types.Payload {
				data := make([]byte, payload)
				for i := range data {
					data[i] = byte(r) + byte(i)
				}
				return types.BytesPayload(data)
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}, signers
}

// TestRecorderJournalsOneBodyPerRound is the write-amplification gate:
// with inline 64 KiB payloads at n=4 a replica's log grows by about one
// body per round — the proposer's copy inbound, or the own proposal —
// plus small records (votes, header relays, certificates). Journaling
// every relay with its body, as the full-body relay did, is ~n bodies.
func TestRecorderJournalsOneBodyPerRound(t *testing.T) {
	const body = 64 << 10
	mk, _ := relayCluster(t, body)
	dir := t.TempDir()
	engines := make([]protocol.Engine, 4)
	for i := range engines {
		engines[i] = mk(types.ReplicaID(i))
	}
	rec, err := NewRecorder(RecorderConfig{Dir: dir, Engine: engines[0].(*core.Engine)})
	if err != nil {
		t.Fatal(err)
	}
	engines[0] = rec
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(4, 2*time.Millisecond),
		Seed:     7,
	}, simnet.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(time.Second)
	m := rec.Metrics()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	rounds := m["rounds"]
	if rounds < 50 || m["relays"] < rounds/2 {
		t.Fatalf("run too short to judge: %d rounds, %d relays", rounds, m["relays"])
	}
	if m["body_pulls"] != 0 {
		t.Fatalf("loss-free run pulled %d bodies", m["body_pulls"])
	}
	perRound := dirBytes(t, dir) / rounds
	t.Logf("%d rounds, %d bytes/round journaled (%.2f bodies)", rounds, perRound, float64(perRound)/body)
	if perRound < body || perRound > body+body/4 {
		t.Fatalf("journal grew %d bytes per round, want one %d-byte body plus small records", perRound, body)
	}
}

// TestRecorderReplayHeaderWithoutBody: the log holds a header relay but
// never its body, and no BlockRequest (requests are not journaled). The
// restarted replica must come up without voting, re-pull the body Δ
// later, and vote once the reply — which is journaled — arrives.
func TestRecorderReplayHeaderWithoutBody(t *testing.T) {
	mk, signers := relayCluster(t, 1024)
	const self, relayer = types.ReplicaID(0), types.ReplicaID(2)
	bc, _ := beacon.NewRoundRobin(4)
	leader := beacon.Leader(bc, 1)
	if leader == self || leader == relayer {
		t.Fatalf("fixture: leader %d collides", leader)
	}
	b := types.NewBlock(1, leader, 0, types.Genesis().ID(), types.BytesPayload(make([]byte, 1024)))
	if err := signers[leader].SignBlock(b); err != nil {
		t.Fatal(err)
	}
	fv := signers[leader].SignVote(types.VoteFast, 1, b.ID())
	relay := &types.Proposal{Header: b.SignedHeader(), FastVote: &fv, Relayed: true}

	dir := t.TempDir()
	now := simnet.Epoch
	rec, err := NewRecorder(RecorderConfig{Dir: dir, Engine: mk(self)})
	if err != nil {
		t.Fatal(err)
	}
	rec.Start(now)
	rec.HandleMessage(relayer, relay, now)
	// The pull goes out and is lost with the crash.
	var pulled bool
	for _, a := range rec.HandleTimer(protocol.TimerID{Kind: protocol.TimerBodyPull}, now.Add(10*time.Millisecond)) {
		if s, ok := a.(protocol.Send); ok {
			_, isReq := s.Msg.(*types.BlockRequest)
			pulled = pulled || isReq
		}
	}
	if !pulled {
		t.Fatal("fixture: first life did not pull")
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	restart := now.Add(time.Minute)
	rec2, err := NewRecorder(RecorderConfig{Dir: dir, Engine: mk(self)})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rec2.Recovered().Records {
		if _, ok := r.Msg.(*types.BlockRequest); ok {
			t.Fatal("a BlockRequest was journaled")
		}
	}
	var armed bool
	for _, a := range rec2.Start(restart) {
		switch act := a.(type) {
		case protocol.Broadcast:
			if _, ok := act.Msg.(*types.VoteMsg); ok {
				t.Fatal("restart voted for a block it holds no body of")
			}
		case protocol.SafetyFault:
			t.Fatal(act.Err)
		case protocol.SetTimer:
			armed = armed || (act.ID.Kind == protocol.TimerBodyPull && act.At.Equal(restart.Add(10*time.Millisecond)))
		}
	}
	if !armed {
		t.Fatal("restart did not re-arm the pull for restart+Δ")
	}
	var req *types.BlockRequest
	for _, a := range rec2.HandleTimer(protocol.TimerID{Kind: protocol.TimerBodyPull}, restart.Add(10*time.Millisecond)) {
		if s, ok := a.(protocol.Send); ok && s.To == relayer {
			req, _ = s.Msg.(*types.BlockRequest)
		}
	}
	if req == nil || req.ID != b.ID() {
		t.Fatalf("restarted replica did not re-pull from the relayer: %v", req)
	}
	// The reply lands: the replica votes, and the body is in the journal.
	appendsBefore := rec2.Metrics()["wal_appends"]
	var voted bool
	for _, a := range rec2.HandleMessage(relayer, &types.Proposal{Block: b, FastVote: &fv, Relayed: true}, restart.Add(20*time.Millisecond)) {
		if bc, ok := a.(protocol.Broadcast); ok {
			_, isVote := bc.Msg.(*types.VoteMsg)
			voted = voted || isVote
		}
	}
	if !voted {
		t.Fatal("replica stayed wedged after the pulled body arrived")
	}
	if rec2.Metrics()["wal_appends"] <= appendsBefore {
		t.Fatal("pulled body was not journaled")
	}
	if err := rec2.Close(); err != nil {
		t.Fatal(err)
	}
	rec3, err := NewRecorder(RecorderConfig{Dir: dir, Engine: mk(self)})
	if err != nil {
		t.Fatal(err)
	}
	defer rec3.Close()
	var bodies int
	for _, r := range rec3.Recovered().Records {
		if p, ok := r.Msg.(*types.Proposal); ok && r.Kind == KindInbound && p.Block != nil {
			bodies++
		}
	}
	if bodies != 1 {
		t.Fatalf("journal holds %d inbound bodies, want the one pulled", bodies)
	}
}
