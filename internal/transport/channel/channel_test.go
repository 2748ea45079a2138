package channel

import (
	"testing"
	"time"

	"banyan/internal/node"
	"banyan/internal/types"
)

func recvOne(t *testing.T, tr node.Transport) node.Inbound {
	t.Helper()
	select {
	case in := <-tr.Receive():
		return in
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
		return node.Inbound{}
	}
}

func TestSendAndBroadcast(t *testing.T) {
	hub := NewHub(3, Options{})
	defer hub.Close()
	t0, t1, t2 := hub.Transport(0), hub.Transport(1), hub.Transport(2)

	if err := t0.Send(1, &types.CertMsg{}); err != nil {
		t.Fatal(err)
	}
	in := recvOne(t, t1)
	if in.From != 0 {
		t.Fatalf("from = %d", in.From)
	}
	if err := t2.Broadcast(&types.CertMsg{}); err != nil {
		t.Fatal(err)
	}
	if in := recvOne(t, t0); in.From != 2 {
		t.Fatalf("from = %d", in.From)
	}
	if in := recvOne(t, t1); in.From != 2 {
		t.Fatalf("from = %d", in.From)
	}
	if err := t0.Send(7, &types.CertMsg{}); err == nil {
		t.Fatal("send to unknown replica accepted")
	}
}

func TestDelay(t *testing.T) {
	const delay = 50 * time.Millisecond
	hub := NewHub(2, Options{Delay: func(_, _ types.ReplicaID) time.Duration { return delay }})
	defer hub.Close()
	start := time.Now()
	hub.Transport(0).Send(1, &types.CertMsg{})
	recvOne(t, hub.Transport(1))
	if got := time.Since(start); got < delay-5*time.Millisecond {
		t.Fatalf("delivered after %v, want >= %v", got, delay)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	hub := NewHub(2, Options{QueueLen: 4})
	defer hub.Close()
	for i := 0; i < 10; i++ {
		hub.Transport(0).Send(1, &types.CertMsg{})
	}
	if hub.Dropped(1) != 6 || hub.Dropped(0) != 0 {
		t.Fatalf("dropped = %d to replica 1 and %d to replica 0, want 6 and 0", hub.Dropped(1), hub.Dropped(0))
	}
}

func TestCloseClosesReceive(t *testing.T) {
	hub := NewHub(2, Options{})
	tr := hub.Transport(0)
	hub.Close()
	hub.Close() // idempotent
	if _, ok := <-tr.Receive(); ok {
		t.Fatal("receive channel still open after Close")
	}
	// Sends after close are dropped, not panicking.
	hub.Transport(1).Send(0, &types.CertMsg{})
	if hub.Dropped(0) != 1 {
		t.Fatalf("dropped = %d after a send to a closed hub, want 1", hub.Dropped(0))
	}
}

func TestDelayedDeliveryAfterCloseIsDropped(t *testing.T) {
	hub := NewHub(2, Options{Delay: func(_, _ types.ReplicaID) time.Duration { return 30 * time.Millisecond }})
	hub.Transport(0).Send(1, &types.CertMsg{})
	hub.Close() // waits for the delayed delivery timer, which must not panic
}
