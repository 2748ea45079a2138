package tcp

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"banyan/internal/types"
)

// benchMessage is a realistic per-round broadcast: a proposal carrying a
// 512-byte payload, the proposer signature and a 3-signer parent
// notarization.
func benchMessage() types.Message {
	r := rand.New(rand.NewSource(42))
	payload := make([]byte, 512)
	r.Read(payload)
	sig := func(n int) []byte {
		s := make([]byte, n)
		r.Read(s)
		return s
	}
	b := types.NewBlock(9, 2, 0, types.BlockID{1, 2, 3}, types.BytesPayload(payload))
	b.Signature = sig(64)
	cert := &types.Certificate{Kind: types.CertNotarization, Round: 8, Block: types.BlockID{4, 5}}
	for i := 0; i < 3; i++ {
		cert.Signers = append(cert.Signers, types.ReplicaID(i))
		cert.Sigs = append(cert.Sigs, sig(64))
	}
	return &types.Proposal{Block: b, ParentNotarization: cert}
}

// BenchmarkBroadcast measures the sender-side cost of the per-message
// path over real loopback connections to three peers: encode, frame, and
// enqueue. Receivers drain and decode concurrently, so the reported
// allocs/op cover the whole wire round trip the cluster pays per message.
//
//   - fanout: one Broadcast per op (the closed check + three enqueues).
//   - send: one unicast Send per op, round-robin (the closed check + the
//     by-ID peer lookup + one enqueue).
//   - large: one Broadcast per op of a proposal with a 256 KiB payload,
//     which the frame references instead of copying. Each op waits until
//     the three peers have decoded it, so the queues never pile up
//     payload-sized frames; it runs first, while no earlier case's
//     frames are still arriving.
//   - duplex: fanout while the three peers keep sending back, so the
//     sender's read loops run their per-frame closed check against it —
//     the contention a shared mutex on that path used to serialize.
//   - burst: one round's worth of traffic per op — a 256 KiB proposal with
//     twelve vote-sized frames queued behind it — which is the shape the
//     dialers' batched writes and the readers' shared buffer exist for.
func BenchmarkBroadcast(b *testing.B) {
	const peers = 3
	sinks := make([]*Transport, peers)
	peerMap := map[types.ReplicaID]string{}
	var received atomic.Int64
	for i := 0; i < peers; i++ {
		s, err := New(Config{Self: types.ReplicaID(i + 1), ListenAddr: "127.0.0.1:0", QueueLen: 1 << 16})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		sinks[i] = s
		peerMap[types.ReplicaID(i+1)] = s.Addr()
		go func(s *Transport) {
			for range s.Receive() {
				received.Add(1)
			}
		}(s)
	}
	t, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Peers: peerMap, QueueLen: 1 << 16})
	if err != nil {
		b.Fatal(err)
	}
	defer t.Close()
	go func() {
		for range t.Receive() {
		}
	}()

	msg := benchMessage()
	// Warm the connections so dial latency stays out of the measurement.
	if err := t.Broadcast(msg); err != nil {
		b.Fatal(err)
	}
	for received.Load() < peers {
		runtime.Gosched()
	}

	report := func(b *testing.B) {
		if d := t.Dropped(); d > int64(b.N) {
			b.Logf("dropped %d messages over the run (full queues)", d)
		}
	}
	body := make([]byte, 256<<10)
	blk := types.NewBlock(9, 2, 0, types.BlockID{1, 2, 3}, types.BytesPayload(body))
	blk.Signature = make([]byte, 64)
	large := &types.Proposal{Block: blk}
	b.Run("large", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(peers * len(body)))
		for i := 0; i < b.N; i++ {
			want := received.Load() + peers
			if err := t.Broadcast(large); err != nil {
				b.Fatal(err)
			}
			for received.Load() < want {
				runtime.Gosched()
			}
		}
		report(b)
	})
	b.Run("fanout", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := t.Broadcast(msg); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("send", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := t.Send(types.ReplicaID(i%peers+1), msg); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("burst", func(b *testing.B) {
		small := &types.VoteMsg{Votes: []types.Vote{
			{Kind: types.VoteNotarize, Round: 9, Voter: 2, Signature: make([]byte, 64)},
			{Kind: types.VoteFast, Round: 9, Voter: 2, Signature: make([]byte, 64)},
		}}
		b.ReportAllocs()
		b.SetBytes(int64(peers * len(body)))
		for i := 0; i < b.N; i++ {
			if err := t.Broadcast(large); err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 12; j++ {
				if err := t.Broadcast(small); err != nil {
					b.Fatal(err)
				}
			}
		}
		report(b)
	})
	b.Run("duplex", func(b *testing.B) {
		// Each peer dials the sender back and keeps a vote-sized message
		// flowing at it for the length of the run.
		stop := make(chan struct{})
		done := make(chan struct{}, peers)
		for i := 0; i < peers; i++ {
			back, err := New(Config{Self: types.ReplicaID(i + 1), ListenAddr: "127.0.0.1:0",
				Peers: map[types.ReplicaID]string{0: t.Addr()}, QueueLen: 64})
			if err != nil {
				b.Fatal(err)
			}
			defer back.Close()
			go func() {
				defer func() { done <- struct{}{} }()
				small := &types.SyncRequest{From: 1, To: 2}
				for {
					select {
					case <-stop:
						return
					default:
						_ = back.Send(0, small) // full queue: dropped, by design
					}
				}
			}()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := t.Broadcast(msg); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		for i := 0; i < peers; i++ {
			<-done
		}
		report(b)
	})
}

// BenchmarkEncodeFrame isolates the frame-encoding step Broadcast and
// Send share, without sockets or queues.
func BenchmarkEncodeFrame(b *testing.B) {
	msg := benchMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encodeFrame(msg); err != nil {
			b.Fatal(err)
		}
	}
}
