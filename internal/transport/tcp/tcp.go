// Package tcp is a length-prefix framed TCP transport for multi-process
// deployments: each replica listens on one address, dials every peer with
// automatic reconnection, and exchanges wire-encoded consensus messages
// (types.EncodeMessage). It is the deployment substrate behind cmd/banyan
// and cmd/localnet.
//
// Framing: a connection opens with a 10-byte hello (8-byte magic, 2-byte
// sender ID); every subsequent frame is a 4-byte little-endian length
// followed by that many bytes of message encoding. A frame is built once
// per message as segments (types.AppendMessageVec): a head, one
// exact-size allocation holding the length prefix and every field under
// types.RefMin bytes, and the large fields — a block's payload or each
// of its transactions, a batch body — referenced where they lie, never
// copied. The dialer hands the segments
// of a batch of frames to one vectored write. A message over
// types.MaxFrame is refused at the sender; an oversized or malformed
// inbound frame closes the connection, and the dialer reconnects.
package tcp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"banyan/internal/metrics"
	"banyan/internal/node"
	"banyan/internal/types"
)

var magic = [8]byte{'b', 'a', 'n', 'y', 'a', 'n', '/', '1'}

const (
	// readBufSize is each connection's read buffer: a length prefix and
	// the small frames behind it (votes, certificates, header relays)
	// arrive in one read call. A frame larger than the buffer bypasses it
	// and is read straight into its own allocation.
	readBufSize = 32 << 10
	// maxWriteBatch caps the frames a dialer gathers into one vectored
	// write. It bounds what one failed write can lose and how many frame
	// references the dialer holds while the socket is busy.
	maxWriteBatch = 16
	// dialTimeout bounds one connection attempt.
	dialTimeout = 3 * time.Second
)

// Config assembles a TCP transport.
type Config struct {
	// Self is this replica's ID.
	Self types.ReplicaID
	// ListenAddr is the local listen address ("host:port"); use port 0 for
	// an ephemeral port (Addr reports the bound address).
	ListenAddr string
	// Peers maps every other replica to its address. An entry for Self is
	// ignored.
	Peers map[types.ReplicaID]string
	// RetryInterval paces reconnection attempts (default 500ms).
	RetryInterval time.Duration
	// QueueLen is the per-peer outbound queue and the shared inbound queue
	// capacity (default 1024). Full outbound queues drop (consensus
	// tolerates loss); the inbound queue applies backpressure.
	QueueLen int
	// Logf, when non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
	// Drops, when non-nil, is incremented for every outbound message
	// dropped on a full (or closing) peer queue, surfacing transport loss
	// through the replica's metrics instead of dropping silently —
	// without it, a WAL-recovery investigation cannot tell replay gaps
	// from network loss. Dropped reports the same count locally.
	Drops *metrics.Counter
}

// Transport is a running TCP endpoint. It implements node.Transport.
type Transport struct {
	cfg      Config
	listener net.Listener
	inbound  chan node.Inbound
	closedCh chan struct{} // closed on Close; unblocks reader goroutines

	// peerList is the fixed fan-out set and peers the same set indexed by
	// replica ID (nil where there is no peer), both built once in New:
	// Broadcast and Send read them without taking a lock or allocating
	// (the peer set never changes after construction; only the
	// connections behind the queues come and go).
	peerList []*peer
	peers    []*peer

	// closed and dropped are read or bumped per message, so they are
	// atomics; mu guards only the accepted-connection set.
	closed  atomic.Bool
	dropped atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]bool // accepted connections, closed on Close

	wg sync.WaitGroup
}

var _ node.Transport = (*Transport)(nil)

type peer struct {
	id   types.ReplicaID
	addr string
	out  chan frame
}

// frame is one length-prefixed message as the segments a vectored write
// sends: head holds the length prefix and every byte the encoder wrote,
// and each ref is a large field of the message, spliced in at its offset
// in head (types.Segments). A message with no field of types.RefMin bytes
// is a head alone, in one exact-size allocation. A frame is immutable
// once built, so every peer queue shares it.
type frame struct {
	head []byte
	refs []types.Ref
}

// New starts listening and dialing. Callers should Close the transport.
func New(cfg Config) (*Transport, error) {
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 500 * time.Millisecond
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", cfg.ListenAddr, err)
	}
	t := &Transport{
		cfg:      cfg,
		listener: ln,
		inbound:  make(chan node.Inbound, cfg.QueueLen),
		closedCh: make(chan struct{}),
		conns:    make(map[net.Conn]bool),
	}
	for id, addr := range cfg.Peers {
		if id == cfg.Self {
			continue
		}
		p := &peer{id: id, addr: addr, out: make(chan frame, cfg.QueueLen)}
		if int(id) >= len(t.peers) {
			t.peers = append(t.peers, make([]*peer, int(id)+1-len(t.peers))...)
		}
		t.peers[id] = p
		t.peerList = append(t.peerList, p)
		t.wg.Add(1)
		go t.dialLoop(p)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address (useful with ephemeral ports).
func (t *Transport) Addr() string { return t.listener.Addr().String() }

// Dropped returns the number of outbound messages dropped on full queues.
func (t *Transport) Dropped() int64 { return t.dropped.Load() }

// Send implements node.Transport.
func (t *Transport) Send(to types.ReplicaID, msg types.Message) error {
	if t.closed.Load() {
		return errors.New("tcp: transport closed")
	}
	if int(to) >= len(t.peers) || t.peers[to] == nil {
		return fmt.Errorf("tcp: unknown peer %d", to)
	}
	p := t.peers[to]
	f, err := encodeFrame(msg)
	if err != nil {
		return err
	}
	t.enqueue(p, f)
	return nil
}

// Broadcast implements node.Transport: the message is encoded into one
// frame shared by every peer queue.
func (t *Transport) Broadcast(msg types.Message) error {
	f, err := encodeFrame(msg)
	if err != nil {
		return err
	}
	if t.closed.Load() {
		return errors.New("tcp: transport closed")
	}
	for _, p := range t.peerList {
		t.enqueue(p, f)
	}
	return nil
}

// Receive implements node.Transport.
func (t *Transport) Receive() <-chan node.Inbound { return t.inbound }

// Close implements node.Transport: stops the listener, dialers and
// readers, then closes the receive channel.
func (t *Transport) Close() error {
	if t.closed.Swap(true) {
		return nil
	}
	// The peer queues are never closed — dialers leave through closedCh —
	// so a Send or Broadcast racing Close at worst parks a frame in a
	// queue nobody drains: no send on a closed channel, hence no recover
	// on the per-message path.
	close(t.closedCh)
	// Close accepted connections so blocked readers return; otherwise a
	// reader on a quiet connection would pin Close until the remote side
	// goes away.
	t.mu.Lock()
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	err := t.listener.Close()
	t.wg.Wait()
	close(t.inbound)
	return err
}

func (t *Transport) enqueue(p *peer, f frame) {
	select {
	case p.out <- f:
	default:
		t.countDrop()
	}
}

func (t *Transport) countDrop() {
	t.dropped.Add(1)
	if t.cfg.Drops != nil {
		t.cfg.Drops.Inc()
	}
}

func (t *Transport) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// dialLoop maintains the outbound connection to one peer, writing frames
// from its queue and reconnecting on failure. After taking a frame it
// also takes what is already queued behind it, up to maxWriteBatch, and
// hands the segments of the lot to one vectored write: a round's burst of
// small frames costs one system call, not one each, and a large field
// goes from the message to the socket without a copy. Frames leave in
// queue order.
func (t *Transport) dialLoop(p *peer) {
	defer t.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	// segs holds the segments of up to maxWriteBatch frames, three for a
	// proposal and one for most frames; it grows to the largest batch.
	segs := make([][]byte, 0, 3*maxWriteBatch)
	// bufs escapes through WriteTo's pointer receiver; declared once, it
	// is allocated once per dialer, not once per write.
	var bufs net.Buffers
	for {
		segs = segs[:0]
		select {
		case f := <-p.out:
			segs = types.Segments(segs, f.head, f.refs)
		case <-t.closedCh:
			return
		}
	drain:
		for n := 1; n < maxWriteBatch; n++ {
			select {
			case f := <-p.out:
				segs = types.Segments(segs, f.head, f.refs)
			default:
				break drain
			}
		}
		for conn == nil {
			if t.closed.Load() {
				return
			}
			c, err := net.DialTimeout("tcp", p.addr, dialTimeout)
			if err != nil {
				t.logf("tcp: dial %d@%s: %v", p.id, p.addr, err)
				time.Sleep(t.cfg.RetryInterval)
				continue
			}
			if err := writeHello(c, t.cfg.Self); err != nil {
				t.logf("tcp: hello to %d: %v", p.id, err)
				c.Close()
				time.Sleep(t.cfg.RetryInterval)
				continue
			}
			conn = c
			t.logf("tcp: connected to %d@%s", p.id, p.addr)
		}
		// WriteTo consumes its receiver, so it gets a copy of the slice
		// header; the segments it wrote are cleared from the shared
		// backing array as it goes.
		bufs = segs
		if _, err := bufs.WriteTo(conn); err != nil {
			t.logf("tcp: write to %d: %v", p.id, err)
			conn.Close()
			conn = nil
			// The whole batch is lost; consensus handles loss. Continue
			// with the next frames after reconnecting.
		}
		// Drop the references a failed write left behind, so a parked
		// dialer pins no frame and no payload.
		clear(segs)
	}
}

// acceptLoop accepts inbound connections and spawns a reader per peer.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
	}()
	from, err := readHello(conn)
	if err != nil {
		t.logf("tcp: bad hello from %s: %v", conn.RemoteAddr(), err)
		return
	}
	// Everything after the hello is read through br. Of a frame larger
	// than the buffer only the head that was already buffered and a tail
	// shorter than the buffer are copied through it; bufio reads the rest
	// straight into buf, the frame's own exact-size allocation.
	br := bufio.NewReaderSize(conn, readBufSize)
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			if !errors.Is(err, io.EOF) && !t.closed.Load() {
				t.logf("tcp: read from %d: %v", from, err)
			}
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if int(n) > types.MaxFrame || n == 0 {
			t.logf("tcp: bad frame length %d from %d", n, from)
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			t.logf("tcp: read frame from %d: %v", from, err)
			return
		}
		// Zero-copy decode: buf is freshly allocated per frame and handed
		// to the message outright (never reused by this loop), so decoded
		// byte fields alias it instead of copying. See DecodeMessageInPlace
		// for the ownership contract.
		msg, err := types.DecodeMessageInPlace(buf)
		if err != nil {
			t.logf("tcp: decode from %d: %v", from, err)
			return
		}
		if t.closed.Load() {
			return
		}
		// Backpressure: block until the node consumes. A stalled node
		// stalls its TCP peers rather than ballooning memory; shutdown
		// unblocks via closedCh.
		select {
		case t.inbound <- node.Inbound{From: from, Msg: msg}:
		case <-t.closedCh:
			return
		}
	}
}

// encodeFrame builds the length-prefixed frame of msg. One counting pass
// (types.VecHeadSize) gives the frame's size and its head's; the message
// is then encoded in reference mode straight into one exact-size
// allocation, the head: the fixed fields and the byte fields under
// types.RefMin — a few hundred bytes for a proposal of large
// transactions, the whole of a vote or of a block of small transactions.
// Each of those bytes is copied once; the large fields stay where they
// lie. The frame does not touch the message: no encoding is cached on it.
func encodeFrame(msg types.Message) (frame, error) {
	headSize, size := types.VecHeadSize(msg)
	if size > types.MaxFrame {
		// The receiver would close the connection on this frame, losing
		// every frame queued behind it.
		return frame{}, fmt.Errorf("tcp: %T encodes to %d bytes, over the %d-byte frame bound", msg, size, types.MaxFrame)
	}
	head, refs, err := types.AppendMessageVec(make([]byte, 4, 4+headSize), msg)
	if err != nil {
		return frame{}, err
	}
	n := len(head) - 4
	for _, r := range refs {
		n += len(r.Data)
	}
	if n != size {
		// The prefix is written from the counted size; if the counting
		// pass ever drifts from the encoded bytes, fail the send here
		// rather than ship a mis-framed stream that tears down the peer
		// connection with no local clue.
		return frame{}, fmt.Errorf("tcp: %T EncodedSize %d != encoded length %d", msg, size, n)
	}
	binary.LittleEndian.PutUint32(head[:4], uint32(size))
	return frame{head: head, refs: refs}, nil
}

func writeHello(c net.Conn, self types.ReplicaID) error {
	var hello [10]byte
	copy(hello[:8], magic[:])
	binary.LittleEndian.PutUint16(hello[8:10], uint16(self))
	_, err := c.Write(hello[:])
	return err
}

func readHello(c net.Conn) (types.ReplicaID, error) {
	var hello [10]byte
	if err := c.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		return 0, err
	}
	if err := c.SetReadDeadline(time.Time{}); err != nil {
		return 0, err
	}
	if [8]byte(hello[:8]) != magic {
		return 0, errors.New("tcp: bad magic")
	}
	return types.ReplicaID(binary.LittleEndian.Uint16(hello[8:10])), nil
}
