package tcp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"banyan/internal/types"
)

// pairedTransports builds n connected transports on ephemeral ports.
func pairedTransports(t *testing.T, n int) []*Transport {
	t.Helper()
	// First bind all listeners on ephemeral ports.
	trs := make([]*Transport, n)
	addrs := make(map[types.ReplicaID]string, n)
	for i := 0; i < n; i++ {
		tr, err := New(Config{
			Self:       types.ReplicaID(i),
			ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		addrs[types.ReplicaID(i)] = tr.Addr()
	}
	// Rebuild with full peer maps (simplest correct wiring for tests).
	for i := 0; i < n; i++ {
		trs[i].Close()
	}
	for i := 0; i < n; i++ {
		tr, err := New(Config{
			Self:       types.ReplicaID(i),
			ListenAddr: addrs[types.ReplicaID(i)],
			Peers:      addrs,
			Logf:       t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		t.Cleanup(func() { tr.Close() })
	}
	return trs
}

func TestSendAndBroadcast(t *testing.T) {
	trs := pairedTransports(t, 3)

	vote := types.Vote{Kind: types.VoteNotarize, Round: 7, Voter: 0, Signature: []byte("sig")}
	if err := trs[0].Send(1, &types.VoteMsg{Votes: []types.Vote{vote}}); err != nil {
		t.Fatal(err)
	}
	select {
	case in := <-trs[1].Receive():
		if in.From != 0 {
			t.Fatalf("message from %d, want 0", in.From)
		}
		vm, ok := in.Msg.(*types.VoteMsg)
		if !ok || len(vm.Votes) != 1 || vm.Votes[0].Round != 7 {
			t.Fatalf("unexpected message %#v", in.Msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("send not delivered")
	}

	if err := trs[2].Broadcast(&types.CertMsg{}); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		select {
		case in := <-trs[i].Receive():
			if in.From != 2 {
				t.Fatalf("broadcast from %d, want 2", in.From)
			}
			if _, ok := in.Msg.(*types.CertMsg); !ok {
				t.Fatalf("unexpected message %#v", in.Msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("broadcast not delivered to %d", i)
		}
	}
}

func TestCloseUnblocksPromptly(t *testing.T) {
	trs := pairedTransports(t, 2)
	// Generate some traffic so connections exist.
	for i := 0; i < 10; i++ {
		if err := trs[0].Send(1, &types.CertMsg{}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-trs[1].Receive():
	case <-time.After(10 * time.Second):
		t.Fatal("no delivery")
	}
	done := make(chan struct{})
	go func() {
		trs[0].Close()
		trs[1].Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return promptly")
	}
}

func TestLargeFrame(t *testing.T) {
	trs := pairedTransports(t, 2)
	payload := make([]byte, 2<<20)
	for i := range payload {
		payload[i] = byte(i)
	}
	b := types.NewBlock(3, 0, 0, types.BlockID{}, types.BytesPayload(payload))
	if err := trs[0].Send(1, &types.Proposal{Block: b}); err != nil {
		t.Fatal(err)
	}
	select {
	case in := <-trs[1].Receive():
		p, ok := in.Msg.(*types.Proposal)
		if !ok {
			t.Fatalf("unexpected message %#v", in.Msg)
		}
		if p.Block.Payload.Size() != len(payload) {
			t.Fatalf("payload size %d, want %d", p.Block.Payload.Size(), len(payload))
		}
		if p.Block.ID() != b.ID() {
			t.Fatal("block identity changed in transit")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("large frame not delivered")
	}
}

// TestTxsPayloadCrossesWire: a block whose payload is a transaction list
// (a mempool batch), sent with its large transactions by reference,
// arrives as the contiguous payload of the same bytes and block ID.
func TestTxsPayloadCrossesWire(t *testing.T) {
	trs := pairedTransports(t, 2)
	var txs [][]byte
	for i := 0; i < 15; i++ {
		tx := make([]byte, 16<<10)
		for j := range tx {
			tx[j] = byte(i + j)
		}
		txs = append(txs, tx, []byte{byte(i)})
	}
	b := types.NewBlock(3, 0, 0, types.BlockID{}, types.TxsPayload(txs))
	if err := trs[0].Send(1, &types.Proposal{Block: b}); err != nil {
		t.Fatal(err)
	}
	select {
	case in := <-trs[1].Receive():
		p, ok := in.Msg.(*types.Proposal)
		if !ok {
			t.Fatalf("unexpected message %#v", in.Msg)
		}
		if p.Block.ID() != b.ID() {
			t.Fatal("block identity changed in transit")
		}
		if !bytes.Equal(p.Block.Payload.Data, b.Payload.Materialize()) {
			t.Fatal("received payload is not the list's bytes")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("list payload not delivered")
	}
}

func TestReconnectAfterPeerRestart(t *testing.T) {
	trs := pairedTransports(t, 2)
	addr1 := trs[1].Addr()

	if err := trs[0].Send(1, &types.CertMsg{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-trs[1].Receive():
	case <-time.After(10 * time.Second):
		t.Fatal("initial delivery failed")
	}

	// Restart replica 1's transport on the same address.
	trs[1].Close()
	time.Sleep(100 * time.Millisecond)
	tr1, err := New(Config{
		Self:       1,
		ListenAddr: addr1,
		Peers:      map[types.ReplicaID]string{0: trs[0].Addr()},
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr1.Close()

	// Sending repeatedly must eventually get through the new connection.
	deadline := time.After(20 * time.Second)
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if err := trs[0].Send(1, &types.CertMsg{}); err != nil {
				t.Fatal(err)
			}
		case in := <-tr1.Receive():
			if in.From != 0 {
				t.Fatalf("from %d, want 0", in.From)
			}
			return
		case <-deadline:
			t.Fatalf("no delivery after restart (dropped=%d)", trs[0].Dropped())
		}
	}
}

func TestUnknownPeer(t *testing.T) {
	trs := pairedTransports(t, 2)
	if err := trs[0].Send(9, &types.CertMsg{}); err == nil {
		t.Fatal("expected error for unknown peer")
	}
}

func TestManyMessagesBothWays(t *testing.T) {
	trs := pairedTransports(t, 2)
	const count = 500
	go func() {
		for i := 0; i < count; i++ {
			trs[0].Send(1, &types.VoteMsg{Votes: []types.Vote{{Kind: types.VoteFast, Round: types.Round(i)}}})
		}
	}()
	go func() {
		for i := 0; i < count; i++ {
			trs[1].Send(0, &types.VoteMsg{Votes: []types.Vote{{Kind: types.VoteFast, Round: types.Round(i)}}})
		}
	}()
	recv := func(tr *Transport, name string) {
		got := 0
		deadline := time.After(20 * time.Second)
		for got < count {
			select {
			case <-tr.Receive():
				got++
			case <-deadline:
				t.Errorf("%s received %d/%d", name, got, count)
				return
			}
		}
	}
	recv(trs[0], "tr0")
	recv(trs[1], "tr1")
	if err := failIfDropped(trs...); err != nil {
		t.Log(err) // informational: drops are legal but unexpected locally
	}
}

func failIfDropped(trs ...*Transport) error {
	for i, tr := range trs {
		if d := tr.Dropped(); d > 0 {
			return fmt.Errorf("transport %d dropped %d messages", i, d)
		}
	}
	return nil
}

// roundOf extracts the sequence number the ordering tests stamp on their
// messages: the vote's round, or the block's.
func roundOf(t *testing.T, msg types.Message) types.Round {
	t.Helper()
	switch m := msg.(type) {
	case *types.VoteMsg:
		return m.Votes[0].Round
	case *types.Proposal:
		return m.Block.Round
	default:
		t.Fatalf("unexpected message %#v", msg)
		return 0
	}
}

// TestBatchedWritesKeepOrder: the dialer gathers queued frames into
// vectored writes and the reader pulls them back out of a shared buffer;
// neither may reorder, drop or merge frames. Every fiftieth message is a
// body larger than the read buffer, so small frames sit both in front of
// and behind a frame that bypasses it.
func TestBatchedWritesKeepOrder(t *testing.T) {
	trs := pairedTransports(t, 2)
	const count = 1000 // below the default queue length: nothing may drop
	big := make([]byte, 3*readBufSize)
	for i := range big {
		big[i] = byte(i)
	}
	go func() {
		for i := 1; i <= count; i++ {
			var msg types.Message
			if i%50 == 0 {
				msg = &types.Proposal{Block: types.NewBlock(types.Round(i), 0, 0, types.BlockID{}, types.BytesPayload(big))}
			} else {
				msg = &types.VoteMsg{Votes: []types.Vote{{Kind: types.VoteFast, Round: types.Round(i), Signature: []byte("sig")}}}
			}
			if err := trs[0].Send(1, msg); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	deadline := time.After(20 * time.Second)
	for want := types.Round(1); want <= count; want++ {
		select {
		case in := <-trs[1].Receive():
			if got := roundOf(t, in.Msg); got != want {
				t.Fatalf("message %d arrived where %d was due (dropped=%d)", got, want, trs[0].Dropped())
			}
			if p, ok := in.Msg.(*types.Proposal); ok && p.Block.Payload.Size() != len(big) {
				t.Fatalf("body %d arrived with %d of %d bytes", want, p.Block.Payload.Size(), len(big))
			}
		case <-deadline:
			t.Fatalf("stalled before message %d", want)
		}
	}
}

// TestReconnectMidBatch: the peer resets the connection after reading
// one frame of a queued burst. The batch in flight is lost — the same
// contract a single failed write always had — and the dialer reconnects
// and carries on: what arrives on the new connection is strictly
// ascending, so nothing already handed to the old connection is sent
// again and nothing overtakes.
func TestReconnectMidBatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr, err := New(Config{
		Self:          0,
		ListenAddr:    "127.0.0.1:0",
		Peers:         map[types.ReplicaID]string{1: ln.Addr().String()},
		RetryInterval: 10 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	var seq atomic.Uint64
	send := func(n int) {
		for i := 0; i < n; i++ {
			vote := types.Vote{Kind: types.VoteFast, Round: types.Round(seq.Add(1)), Signature: []byte("sig")}
			if err := tr.Send(1, &types.VoteMsg{Votes: []types.Vote{vote}}); err != nil {
				t.Error(err)
			}
		}
	}
	// readFrame plays the receiving side by hand so the test owns the
	// connection's fate.
	readFrame := func(c net.Conn) types.Round {
		var lenBuf [4]byte
		if _, err := io.ReadFull(c, lenBuf[:]); err != nil {
			t.Fatalf("reading frame length: %v", err)
		}
		buf := make([]byte, binary.LittleEndian.Uint32(lenBuf[:]))
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatalf("reading frame: %v", err)
		}
		msg, err := types.DecodeMessageInPlace(buf)
		if err != nil {
			t.Fatal(err)
		}
		return roundOf(t, msg)
	}
	accept := func() net.Conn {
		ln.(*net.TCPListener).SetDeadline(time.Now().Add(10 * time.Second))
		c, err := ln.Accept()
		if err != nil {
			t.Fatalf("accept: %v", err)
		}
		c.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := readHello(c); err != nil {
			t.Fatalf("hello: %v", err)
		}
		return c
	}

	// A burst queued before the connection exists leaves in batches.
	send(4 * maxWriteBatch)
	c1 := accept()
	if got := readFrame(c1); got != 1 {
		t.Fatalf("first frame is %d, want 1", got)
	}
	// Reset, not a graceful close: the dialer's next batched write fails.
	c1.(*net.TCPConn).SetLinger(0)
	c1.Close()

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				send(maxWriteBatch + 3)
			}
		}
	}()
	c2 := accept()
	defer c2.Close()
	last := types.Round(1)
	for i := 0; i < 10*maxWriteBatch; i++ {
		got := readFrame(c2)
		if got <= last {
			t.Fatalf("frame %d arrived after frame %d on the new connection", got, last)
		}
		last = got
	}
	close(stop)
	<-done
}

// TestOversizedMessageRefused: a message over types.MaxFrame fails at
// the sender instead of going out as a frame the peer would close the
// connection on, and the connection keeps carrying what follows.
func TestOversizedMessageRefused(t *testing.T) {
	trs := pairedTransports(t, 2)
	body := types.BytesPayload(make([]byte, 1<<20))
	huge := &types.SyncResponse{}
	for r := types.Round(1); len(huge.Blocks) == 0 || types.EncodedSize(huge) <= types.MaxFrame; r++ {
		huge.Blocks = append(huge.Blocks, types.NewBlock(r, 0, 0, types.BlockID{}, body))
	}
	if err := trs[0].Send(1, huge); err == nil {
		t.Fatalf("Send of a %d-byte message succeeded", types.EncodedSize(huge))
	}
	if err := trs[0].Broadcast(huge); err == nil {
		t.Fatalf("Broadcast of a %d-byte message succeeded", types.EncodedSize(huge))
	}
	if err := trs[0].Send(1, &types.SyncRequest{From: 1, To: 2}); err != nil {
		t.Fatal(err)
	}
	select {
	case in := <-trs[1].Receive():
		if _, ok := in.Msg.(*types.SyncRequest); !ok {
			t.Fatalf("unexpected message %#v", in.Msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("message after the refused one not delivered")
	}
}
