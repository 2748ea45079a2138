package tcp

import (
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"banyan/internal/types"
)

// discardSender returns a transport whose n peers are bare listeners
// that read and drop every byte, so a measurement of the process's
// allocations sees the sender's alone: the peers decode nothing. read
// reports the bytes the peers have taken so far.
func discardSender(t *testing.T, n int) (tr *Transport, read func() int64) {
	t.Helper()
	var total atomic.Int64
	peers := map[types.ReplicaID]string{}
	for i := 1; i <= n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		peers[types.ReplicaID(i)] = ln.Addr().String()
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			buf := make([]byte, 64<<10)
			for {
				k, err := c.Read(buf)
				total.Add(int64(k))
				if err != nil {
					return
				}
			}
		}()
	}
	tr, err := New(Config{Self: 0, ListenAddr: "127.0.0.1:0", Peers: peers, QueueLen: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr, total.Load
}

// broadcastDrained broadcasts m once and waits until the peers have read
// it, so the dialers are connected and idle afterwards.
func broadcastDrained(t *testing.T, tr *Transport, read func() int64, peers int, m types.Message) {
	t.Helper()
	want := read() + int64(peers*(4+types.EncodedSize(m)))
	if err := tr.Broadcast(m); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for read() < want {
		if time.Now().After(deadline) {
			t.Fatalf("peers read %d of %d bytes", read(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAllocRegressionBroadcastLargeProposal: broadcasting a 256 KiB
// proposal to three peers allocates the frame's head, not a copy of the
// payload. A contiguous frame costs ~262 KB per broadcast.
func TestAllocRegressionBroadcastLargeProposal(t *testing.T) {
	const peers, runs = 3, 32
	tr, read := discardSender(t, peers)
	r := rand.New(rand.NewSource(5))
	body := make([]byte, 256<<10)
	r.Read(body)
	b := types.NewBlock(9, 0, 0, types.BlockID{1}, types.BytesPayload(body))
	b.Signature = make([]byte, 64)
	cert := &types.Certificate{Kind: types.CertNotarization, Round: 8, Block: types.BlockID{1}}
	for i := 0; i < 3; i++ {
		cert.Signers = append(cert.Signers, types.ReplicaID(i))
		cert.Sigs = append(cert.Sigs, make([]byte, 64))
	}
	fv := types.Vote{Kind: types.VoteFast, Round: 9, Block: b.ID(), Signature: make([]byte, 64)}
	m := &types.Proposal{Block: b, ParentNotarization: cert, FastVote: &fv}
	broadcastDrained(t, tr, read, peers, m)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := tr.Broadcast(m); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Broadcast of a 256 KiB proposal to %d peers: %d B/op", peers, perOp)
	if perOp >= 4<<10 {
		t.Errorf("Broadcast of a 256 KiB proposal: %d B/op, budget < 4 KiB", perOp)
	}
}

// TestAllocRegressionBroadcastSmallTxs: a proposal whose payload is a list
// of transactions under types.RefMin — a block of 512 B transactions just
// over 1 MiB — broadcasts in one allocation of its head, into which each
// transaction is copied once: the cost of the contiguous batch it
// replaces. The budget is the head rounded up to whole 8 KiB pages, plus
// a page for the rest. Encoding it into a growing scratch buffer and
// copying the head out read ~6 MB per broadcast.
func TestAllocRegressionBroadcastSmallTxs(t *testing.T) {
	const peers, runs = 3, 8
	tr, read := discardSender(t, peers)
	r := rand.New(rand.NewSource(6))
	txs := make([][]byte, 2040)
	for i := range txs {
		txs[i] = make([]byte, 512)
		r.Read(txs[i])
	}
	b := types.NewBlock(9, 0, 0, types.BlockID{1}, types.TxsPayload(txs))
	b.Signature = make([]byte, 64)
	m := &types.Proposal{Block: b}
	if types.EncodedSize(m) <= 1<<20 {
		t.Fatalf("proposal encodes to %d bytes; the case is a block over 1 MiB", types.EncodedSize(m))
	}
	broadcastDrained(t, tr, read, peers, m)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := tr.Broadcast(m); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Broadcast of a %d-byte proposal of 512 B transactions to %d peers: %d B/op", types.EncodedSize(m), peers, perOp)
	if budget := uint64(types.EncodedSize(m) + 16<<10); perOp >= budget {
		t.Errorf("Broadcast of a proposal of 512 B transactions: %d B/op, budget < %d", perOp, budget)
	}
}

// TestAllocRegressionBroadcastSmall: a vote, a certificate and a header
// relay each broadcast in one allocation, the exact-size frame every peer
// queue shares.
func TestAllocRegressionBroadcastSmall(t *testing.T) {
	const peers = 3
	tr, read := discardSender(t, peers)
	sig := make([]byte, 64)
	b := types.NewBlock(9, 0, 0, types.BlockID{1}, types.BytesPayload(make([]byte, 64<<10)))
	b.Signature = sig
	cert := &types.Certificate{Kind: types.CertNotarization, Round: 8, Block: types.BlockID{1}}
	for i := 0; i < 3; i++ {
		cert.Signers = append(cert.Signers, types.ReplicaID(i))
		cert.Sigs = append(cert.Sigs, sig)
	}
	fv := types.Vote{Kind: types.VoteFast, Round: 9, Block: b.ID(), Signature: sig}
	msgs := map[string]types.Message{
		"vote": &types.VoteMsg{Votes: []types.Vote{
			{Kind: types.VoteNotarize, Round: 9, Block: b.ID(), Signature: sig}, fv,
		}},
		"cert":  &types.CertMsg{Cert: cert},
		"relay": &types.Proposal{Header: b.SignedHeader(), ParentNotarization: cert, FastVote: &fv, Relayed: true},
	}
	for name, m := range msgs {
		broadcastDrained(t, tr, read, peers, m)
		if n := testing.AllocsPerRun(100, func() {
			if err := tr.Broadcast(m); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("%s Broadcast: %v allocs/op, budget 1", name, n)
		}
	}
}
