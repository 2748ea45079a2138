package types

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The wire encoding is a hand-rolled little-endian binary format: fixed
// width integers, 4-byte length-prefixed byte strings, and presence tags
// for optional fields. It is deliberately free of reflection so encoding
// cost is predictable on the block-broadcast hot path.

// ErrTruncated reports an encoding that ended before the value it promised.
var ErrTruncated = errors.New("types: truncated encoding")

// maxSliceLen bounds length prefixes so a corrupt or hostile frame cannot
// trigger a huge allocation. 64 MiB comfortably exceeds any block this
// repository produces.
const maxSliceLen = 64 << 20

// encoder appends values to buf. It is the one place the wire layout is
// written: every size of a message is a counting pass of it.
//
// In reference mode (vec) a byte field of at least RefMin bytes is not
// appended: bytes writes its length prefix and records the field as a Ref
// at the current offset. In counting mode (count) nothing is appended: n
// counts the encoded length and ref the bytes reference mode would take
// by reference; with logical set, each synthetic payload counts at its
// logical size, 1+4+SynthSize, as if its bytes were present.
type encoder struct {
	buf  []byte
	refs []Ref
	vec  bool

	count   bool
	logical bool
	n, ref  int
}

// counted adds k to n and reports true in counting mode; it reports false,
// counting nothing, when the caller is to append.
func (e *encoder) counted(k int) bool {
	if e.count {
		e.n += k
	}
	return e.count
}

func (e *encoder) u8(v uint8) {
	if !e.counted(1) {
		e.buf = append(e.buf, v)
	}
}

func (e *encoder) u16(v uint16) {
	if !e.counted(2) {
		e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
	}
}

func (e *encoder) u32(v uint32) {
	if !e.counted(4) {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	}
}

func (e *encoder) u64(v uint64) {
	if !e.counted(8) {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	}
}

func (e *encoder) id(v BlockID) { e.hash(v) }

func (e *encoder) hash(v [32]byte) {
	if !e.counted(32) {
		e.buf = append(e.buf, v[:]...)
	}
}

func (e *encoder) bytes(v []byte) {
	e.u32(uint32(len(v)))
	switch {
	case e.counted(len(v)):
		if len(v) >= RefMin {
			e.ref += len(v)
		}
	case e.vec && len(v) >= RefMin:
		e.refs = append(e.refs, Ref{At: len(e.buf), Data: v})
	default:
		e.buf = append(e.buf, v...)
	}
}

func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// decoder consumes values from a buffer with a sticky error.
//
// In aliasing mode (alias true) decoded byte slices point into the input
// buffer instead of being copied out; see DecodeMessageInPlace for the
// ownership contract that makes this safe.
type decoder struct {
	data  []byte
	off   int
	err   error
	alias bool
	// scratch coalesces copy-mode byte fields: every decoded signature and
	// payload of one message is carved out of a single backing allocation
	// sized to the input length — a strict upper bound on the sum of all
	// byte fields, so the buffer never regrows and the carved slices never
	// split across backing arrays.
	scratch []byte
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.data) {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) id() BlockID {
	var id BlockID
	b := d.take(32)
	if b != nil {
		copy(id[:], b)
	}
	return id
}

func (d *decoder) hash() [32]byte {
	var h [32]byte
	b := d.take(32)
	if b != nil {
		copy(h[:], b)
	}
	return h
}

func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil || n == 0 {
		// Zero length decodes to nil so that encode/decode round-trips
		// preserve payload identity (a nil Data marks synthetic payloads).
		return nil
	}
	if n > maxSliceLen {
		d.fail(fmt.Errorf("types: slice length %d exceeds limit", n))
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	if d.alias {
		// Zero-copy: the slice aliases the input buffer, whose lifetime
		// the caller has tied to the message (DecodeMessageInPlace).
		return b[:n:n]
	}
	if d.scratch == nil {
		d.scratch = make([]byte, 0, len(d.data)-d.off+int(n))
	}
	off := len(d.scratch)
	d.scratch = append(d.scratch, b...)
	return d.scratch[off:len(d.scratch):len(d.scratch)]
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.data) {
		return fmt.Errorf("types: %d trailing bytes after message", len(d.data)-d.off)
	}
	return nil
}

// EncodeMessage serializes any consensus message, prefixed with its kind
// tag, in exactly one exact-size allocation (EncodedSize bytes). The
// inverse is DecodeMessage.
func EncodeMessage(m Message) ([]byte, error) {
	return AppendMessage(make([]byte, 0, EncodedSize(m)), m)
}

// countMessage walks m in counting mode and returns its encoded length
// and the bytes reference mode takes by reference; logical counts each
// synthetic payload at its logical size. A message of no known type
// counts its kind tag alone: every encoder rejects it.
func countMessage(m Message, logical bool) (n, ref int) {
	e := encoder{count: true, logical: logical}
	_ = e.message(m)
	return e.n, e.ref
}

// EncodedSize is the exact length of EncodeMessage's output: a counting
// pass of the encoder, which appends nothing.
func EncodedSize(m Message) int {
	n, _ := countMessage(m, false)
	return n
}

// WireSize is the number of bytes m is billed on the wire, which the
// discrete-event simulator charges against link bandwidth: EncodedSize
// with each synthetic payload at its logical size, 1+4+SynthSize, where
// its encoding is a 13-byte descriptor. For concrete payloads the two are
// equal.
func WireSize(m Message) int {
	n, _ := countMessage(m, true)
	return n
}

// AppendMessage appends the wire encoding of m to buf and returns the
// extended slice. Reserving EncodedSize(m) bytes of spare capacity makes
// the call allocation-free, which is how the WAL's record framing shares
// pooled buffers instead of allocating per message. The TCP transport
// frames with AppendMessageVec, which leaves large fields in place.
func AppendMessage(buf []byte, m Message) ([]byte, error) {
	e := encoder{buf: buf}
	if err := e.message(m); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// RefMin is the smallest byte field AppendMessageVec takes by reference,
// so votes, certificates and header relays still encode into one buffer.
// A smaller field, such as each transaction of a block of small ones, is
// copied into the head. The 4 KiB value is unmeasured: the only TCP
// workload sends 16 KiB transactions, and any threshold up to that size
// frames them the same way.
const RefMin = 4 << 10

// A Ref is a byte field that AppendMessageVec took by reference: Data
// belongs at offset At of the bytes the encoder appended.
type Ref struct {
	At   int
	Data []byte
}

// AppendMessageVec is AppendMessage in reference mode: every byte field
// of at least RefMin bytes (a payload, a batch body, a transaction of a
// list payload) is left where it lies and returned as a Ref instead of
// being copied into buf. Segments reassembles the encoding, byte for
// byte what AppendMessage produces.
// The Refs alias the message and, like it, must never be modified.
func AppendMessageVec(buf []byte, m Message) ([]byte, []Ref, error) {
	e := encoder{buf: buf, vec: true}
	if err := e.message(m); err != nil {
		return nil, nil, err
	}
	return e.buf, e.refs, nil
}

// VecHeadSize returns the number of bytes AppendMessageVec appends for m
// (its head) and m's EncodedSize, from one counting pass. Reserving head
// gives the head one exact-size allocation that every field under RefMin
// is copied into once.
func VecHeadSize(m Message) (head, size int) {
	n, ref := countMessage(m, false)
	return n - ref, n
}

// Segments appends to dst the pieces whose concatenation is the encoding
// AppendMessageVec split into head and refs: head up to each Ref, the
// Ref's data, and head's tail. Empty pieces are left out.
func Segments(dst [][]byte, head []byte, refs []Ref) [][]byte {
	off := 0
	for _, r := range refs {
		if r.At > off {
			dst = append(dst, head[off:r.At])
		}
		dst = append(dst, r.Data)
		off = r.At
	}
	if off < len(head) {
		dst = append(dst, head[off:])
	}
	return dst
}

// message appends the kind tag and encoding of m.
func (e *encoder) message(m Message) error {
	e.u8(uint8(m.Kind()))
	switch v := m.(type) {
	case *Proposal:
		encodeProposal(e, v)
	case *VoteMsg:
		e.u16(uint16(len(v.Votes)))
		for i := range v.Votes {
			encodeVote(e, &v.Votes[i])
		}
	case *CertMsg:
		encodeOptCert(e, v.Cert)
	case *Advance:
		encodeOptCert(e, v.Notarization)
		encodeOptUnlock(e, v.Unlock)
	case *NewView:
		e.u64(uint64(v.Round))
		e.u16(uint16(v.Sender))
		encodeOptCert(e, v.HighQC)
		e.bytes(v.Signature)
	case *SyncRequest:
		e.u64(uint64(v.From))
		e.u64(uint64(v.To))
	case *SyncResponse:
		e.u32(uint32(len(v.Blocks)))
		for _, b := range v.Blocks {
			encodeBlock(e, b)
		}
		encodeOptCert(e, v.Finalization)
	case *SnapshotRequest:
		e.u64(uint64(v.Have))
	case *SnapshotResponse:
		e.u32(uint32(len(v.Chain)))
		for _, b := range v.Chain {
			encodeBlock(e, b)
		}
		encodeOptCert(e, v.Finalization)
		e.u32(uint32(len(v.Sets)))
		for _, s := range v.Sets {
			encodeValidatorSetDesc(e, s)
		}
	case *BatchAnnounce:
		e.u16(uint16(v.Origin))
		e.hash(v.Digest)
		encodePayload(e, &v.Body)
	case *BatchRequest:
		e.hash(v.Digest)
	case *BatchResponse:
		e.hash(v.Digest)
		encodePayload(e, &v.Body)
	case *BlockRequest:
		e.u64(uint64(v.Round))
		e.id(v.ID)
	default:
		return fmt.Errorf("types: cannot encode message of type %T", m)
	}
	return nil
}

// DecodeMessage parses a frame produced by EncodeMessage. Decoded byte
// fields are copied out of data, so the caller keeps ownership of it.
func DecodeMessage(data []byte) (Message, error) {
	return decodeMessage(data, false)
}

// DecodeMessageInPlace parses a frame like DecodeMessage but without
// copying: every byte field of the returned message (signatures, payload
// data) aliases data.
//
// Ownership contract: the caller transfers data to the message. The
// buffer must not be modified, reused, or returned to a pool afterwards,
// and it stays reachable as long as the message (or any state derived
// from its slices, such as vote ledger entries) lives. Receive paths
// that allocate a fresh buffer per frame — the TCP read loop — satisfy
// this for free; paths that scan a long-lived mapped region (WAL segment
// recovery) must keep copying and use DecodeMessage.
func DecodeMessageInPlace(data []byte) (Message, error) {
	return decodeMessage(data, true)
}

func decodeMessage(data []byte, alias bool) (Message, error) {
	d := &decoder{data: data, alias: alias}
	kind := MsgKind(d.u8())
	var m Message
	switch kind {
	case MsgProposal:
		m = decodeProposal(d)
	case MsgVote:
		n := int(d.u16())
		a := &voteMsgArena{}
		vm := &a.vm
		if n <= len(a.votes) {
			// The common bundle (fast vote + notarization vote) fits the
			// arena; oversized messages fall back to append growth.
			vm.Votes = a.votes[:0]
		}
		for i := 0; i < n && d.err == nil; i++ {
			vm.Votes = append(vm.Votes, decodeVote(d))
		}
		m = vm
	case MsgCert:
		m = &CertMsg{Cert: decodeOptCert(d)}
	case MsgAdvance:
		m = &Advance{Notarization: decodeOptCert(d), Unlock: decodeOptUnlock(d)}
	case MsgNewView:
		m = &NewView{
			Round:  Round(d.u64()),
			Sender: ReplicaID(d.u16()),
		}
		m.(*NewView).HighQC = decodeOptCert(d)
		m.(*NewView).Signature = d.bytes()
	case MsgSyncRequest:
		m = &SyncRequest{From: Round(d.u64()), To: Round(d.u64())}
	case MsgSyncResponse:
		sr := &SyncResponse{}
		n := d.u32()
		// Same bound onSyncResponse enforces — an oversized response must
		// die in the decoder, not survive to be half-trusted upstream.
		if d.err == nil && n > MaxSyncBlocks {
			d.fail(fmt.Errorf("types: sync response with %d blocks exceeds limit", n))
		}
		for i := uint32(0); i < n && d.err == nil; i++ {
			sr.Blocks = append(sr.Blocks, decodeBlock(d))
		}
		sr.Finalization = decodeOptCert(d)
		m = sr
	case MsgSnapshotRequest:
		m = &SnapshotRequest{Have: Round(d.u64())}
	case MsgSnapshotResponse:
		sr := &SnapshotResponse{}
		n := d.u32()
		if d.err == nil && n > MaxSnapshotBlocks {
			d.fail(fmt.Errorf("types: snapshot response with %d blocks exceeds limit", n))
		}
		for i := uint32(0); i < n && d.err == nil; i++ {
			sr.Chain = append(sr.Chain, decodeBlock(d))
		}
		sr.Finalization = decodeOptCert(d)
		k := d.u32()
		if d.err == nil && k > MaxSnapshotSets {
			d.fail(fmt.Errorf("types: snapshot response with %d validator sets exceeds limit", k))
		}
		for i := uint32(0); i < k && d.err == nil; i++ {
			sr.Sets = append(sr.Sets, decodeValidatorSetDesc(d))
		}
		m = sr
	case MsgBatchAnnounce:
		m = &BatchAnnounce{
			Origin: ReplicaID(d.u16()),
			Digest: d.hash(),
			Body:   decodePayload(d),
		}
	case MsgBatchRequest:
		m = &BatchRequest{Digest: d.hash()}
	case MsgBatchResponse:
		m = &BatchResponse{Digest: d.hash(), Body: decodePayload(d)}
	case MsgBlockRequest:
		m = &BlockRequest{Round: Round(d.u64()), ID: d.id()}
	default:
		return nil, fmt.Errorf("types: unknown message kind %d", kind)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// AppendBlock appends the wire encoding of a block (the same layout
// blocks use inside messages) to buf. BlockEncodedSize bytes of spare
// capacity make the call allocation-free. The WAL's checkpoint records
// use it to frame finalized-chain windows.
func AppendBlock(buf []byte, b *Block) []byte {
	e := encoder{buf: buf}
	encodeBlock(&e, b)
	return e.buf
}

// BlockEncodedSize returns the exact length AppendBlock produces: a
// counting pass of the encoder.
func BlockEncodedSize(b *Block) int {
	e := encoder{count: true}
	encodeBlock(&e, b)
	return e.n
}

// DecodeBlockPrefix decodes one block from the front of data, returning
// the block and the number of bytes consumed. Byte fields are copied out
// of data. The inverse of AppendBlock.
func DecodeBlockPrefix(data []byte) (*Block, int, error) {
	d := &decoder{data: data}
	b := decodeBlock(d)
	if d.err != nil {
		return nil, 0, d.err
	}
	return b, d.off, nil
}

// proposalHeaderTag is the header form's value of the proposal's
// block-presence byte (0 = no block, 1 = body form).
const proposalHeaderTag = 2

func encodeProposal(e *encoder, p *Proposal) {
	e.bool(p.Relayed)
	if h := p.headerForm(); h != nil {
		e.u8(proposalHeaderTag)
		encodeHeader(e, &h.BlockHeader)
		e.bytes(h.Signature)
	} else {
		encodeBlock(e, p.Block)
	}
	encodeOptCert(e, p.ParentNotarization)
	encodeOptUnlock(e, p.ParentUnlock)
	if p.FastVote != nil {
		e.bool(true)
		encodeVote(e, p.FastVote)
	} else {
		e.bool(false)
	}
}

// Decode arenas collapse the read path's per-object allocations into a
// single one: the arena embeds every sub-object a decoded message
// retains, plus fixed-capacity backing arrays for the short slices
// (certificate signers, vote bundles). The scratch is deliberately not
// pooled — vote ledgers and round state retain decoded messages
// indefinitely, so the objects must live as long as the message; the win
// is one allocation instead of six, not reuse.
const arenaSigners = 64

type proposalArena struct {
	p       Proposal
	b       Block
	h       SignedHeader
	c       Certificate
	fv      Vote
	cc      ConfigChange
	signers [arenaSigners]ReplicaID
	sigs    [arenaSigners][]byte
}

type voteMsgArena struct {
	vm    VoteMsg
	votes [4]Vote
}

func decodeProposal(d *decoder) *Proposal {
	a := &proposalArena{}
	p := &a.p
	p.Relayed = d.bool()
	switch tag := d.u8(); tag {
	case 0:
	case 1:
		p.Block = decodeBlockInto(&a.b, d, &a.cc)
	case proposalHeaderTag:
		a.h.BlockHeader = decodeHeader(d)
		a.h.Signature = d.bytes()
		p.Header = &a.h
	default:
		d.fail(fmt.Errorf("types: unknown proposal block form %d", tag))
	}
	p.ParentNotarization = decodeOptCertInto(&a.c, a.signers[:0], a.sigs[:0], d)
	p.ParentUnlock = decodeOptUnlock(d)
	if d.bool() {
		a.fv = decodeVote(d)
		p.FastVote = &a.fv
	}
	return p
}

func encodeBlock(e *encoder, b *Block) {
	if b == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	e.u64(uint64(b.Round))
	e.u32(b.Epoch)
	e.u16(uint16(b.Proposer))
	e.u16(uint16(b.Rank))
	e.id(b.Parent)
	encodePayload(e, &b.Payload)
	e.bytes(b.Signature)
}

func decodeBlock(d *decoder) *Block {
	if !d.bool() {
		return nil
	}
	return decodeBlockInto(&Block{}, d, nil)
}

// decodeBlockInto decodes a block body (after its presence tag) into a
// caller-provided struct — the arena variant of decodeBlock. cc, when
// non-nil, is arena scratch for a change-bearing payload's ConfigChange.
func decodeBlockInto(b *Block, d *decoder, cc *ConfigChange) *Block {
	b.Round = Round(d.u64())
	b.Epoch = d.u32()
	b.Proposer = ReplicaID(d.u16())
	b.Rank = Rank(d.u16())
	b.Parent = d.id()
	b.Payload = decodePayloadInto(d, cc)
	b.Signature = d.bytes()
	return b
}

func encodePayload(e *encoder, p *Payload) {
	if p.Change != nil {
		// Reconfig wrapper: tag 3 carries the change, then the content
		// form encodes as usual behind it.
		e.u8(3)
		e.u8(uint8(p.Change.Op))
		e.u16(uint16(p.Change.Replica))
		e.bytes(p.Change.PubKey)
	}
	if p.HasBatches() {
		e.u8(2)
		e.u32(uint32(len(p.Batches)))
		for _, r := range p.Batches {
			e.hash(r.Digest)
			e.u32(r.Size)
		}
		e.bytes(p.Data)
		return
	}
	if p.IsSynthetic() {
		if e.logical {
			e.n += 1 + 4 + int(p.SynthSize)
			return
		}
		e.u8(1)
		e.u32(p.SynthSize)
		e.u64(p.SynthSeed)
		return
	}
	e.u8(0)
	if p.txs == nil {
		e.bytes(p.Data)
		return
	}
	// The list form's bytes are its transactions as byte fields, so it
	// encodes as the contiguous form of those bytes does.
	e.u32(uint32(p.Size()))
	for _, tx := range p.txs {
		e.bytes(tx)
	}
}

func decodePayload(d *decoder) Payload {
	return decodePayloadInto(d, nil)
}

// decodePayloadInto is decodePayload with optional arena scratch for the
// reconfig wrapper's ConfigChange (nil allocates one on demand).
func decodePayloadInto(d *decoder, cc *ConfigChange) Payload {
	tag := d.u8()
	if tag == 3 {
		if cc == nil {
			cc = &ConfigChange{}
		}
		cc.Op = ConfigOp(d.u8())
		cc.Replica = ReplicaID(d.u16())
		cc.PubKey = d.bytes()
		p := decodeBasePayload(d, d.u8())
		p.Change = cc
		return p
	}
	return decodeBasePayload(d, tag)
}

func decodeBasePayload(d *decoder, tag uint8) Payload {
	switch tag {
	case 1:
		return Payload{SynthSize: d.u32(), SynthSeed: d.u64()}
	case 2:
		n := d.u32()
		if d.err != nil || n > MaxBatchRefs {
			d.fail(fmt.Errorf("types: payload with %d batch refs exceeds limit", n))
			return Payload{}
		}
		var refs []BatchRef
		if n > 0 {
			refs = make([]BatchRef, 0, n)
		}
		for i := uint32(0); i < n && d.err == nil; i++ {
			refs = append(refs, BatchRef{Digest: d.hash(), Size: d.u32()})
		}
		return Payload{Batches: refs, Data: d.bytes()}
	case 3:
		// A nested reconfig wrapper is malformed — one change per payload.
		d.fail(fmt.Errorf("types: nested payload change wrapper"))
		return Payload{}
	default:
		return Payload{Data: d.bytes()}
	}
}

func encodeValidatorSetDesc(e *encoder, s *ValidatorSetDesc) {
	e.u32(s.Epoch)
	e.u64(uint64(s.Activation))
	e.u16(s.F)
	e.u16(s.P)
	e.u32(uint32(len(s.Members)))
	for i, m := range s.Members {
		e.u16(uint16(m))
		e.bytes(s.Keys[i])
	}
}

func decodeValidatorSetDesc(d *decoder) *ValidatorSetDesc {
	s := &ValidatorSetDesc{
		Epoch:      d.u32(),
		Activation: Round(d.u64()),
		F:          d.u16(),
		P:          d.u16(),
	}
	n := d.u32()
	if d.err != nil || n > MaxValidatorSetMembers {
		d.fail(fmt.Errorf("types: validator set with %d members exceeds limit", n))
		return nil
	}
	if n > 0 {
		s.Members = make([]ReplicaID, 0, n)
		s.Keys = make([][]byte, 0, n)
	}
	for i := uint32(0); i < n && d.err == nil; i++ {
		s.Members = append(s.Members, ReplicaID(d.u16()))
		s.Keys = append(s.Keys, d.bytes())
	}
	s.Members = InternReplicaIDs(s.Members)
	return s
}

// AppendValidatorSetDesc appends the wire encoding of one validator-set
// descriptor to buf (the same layout SnapshotResponse uses); the WAL's
// checkpoint records frame set histories with it. EncodedSize bytes of
// spare capacity make the call allocation-free.
func AppendValidatorSetDesc(buf []byte, s *ValidatorSetDesc) []byte {
	e := encoder{buf: buf}
	encodeValidatorSetDesc(&e, s)
	return e.buf
}

// EncodedSize is the exact length AppendValidatorSetDesc appends: a
// counting pass of the encoder.
func (d *ValidatorSetDesc) EncodedSize() int {
	e := encoder{count: true}
	encodeValidatorSetDesc(&e, d)
	return e.n
}

// DecodeValidatorSetDescPrefix decodes one descriptor from the front of
// data, returning it and the number of bytes consumed. Byte fields are
// copied out of data. The inverse of AppendValidatorSetDesc.
func DecodeValidatorSetDescPrefix(data []byte) (*ValidatorSetDesc, int, error) {
	d := &decoder{data: data}
	s := decodeValidatorSetDesc(d)
	if d.err != nil {
		return nil, 0, d.err
	}
	return s, d.off, nil
}

func encodeVote(e *encoder, v *Vote) {
	e.u8(uint8(v.Kind))
	e.u64(uint64(v.Round))
	e.id(v.Block)
	e.u16(uint16(v.Voter))
	e.bytes(v.Signature)
}

func decodeVote(d *decoder) Vote {
	return Vote{
		Kind:      VoteKind(d.u8()),
		Round:     Round(d.u64()),
		Block:     d.id(),
		Voter:     ReplicaID(d.u16()),
		Signature: d.bytes(),
	}
}

// certMarkedTag is the presence byte of a certificate that carries a
// fast-vote marker after its signer list; a certificate without one keeps
// presence byte 1 and its pre-marker layout, so journals and checkpoints
// written before the marker existed still decode.
const certMarkedTag = 2

func encodeOptCert(e *encoder, c *Certificate) {
	if c == nil {
		e.u8(0)
		return
	}
	marked := len(c.Fast) > 0
	if marked {
		e.u8(certMarkedTag)
	} else {
		e.u8(1)
	}
	e.u8(uint8(c.Kind))
	e.u64(uint64(c.Round))
	e.id(c.Block)
	e.u32(uint32(len(c.Signers)))
	for i, s := range c.Signers {
		e.u16(uint16(s))
		e.bytes(c.Sigs[i])
	}
	if marked {
		e.bytes(c.Fast)
	}
}

func decodeOptCert(d *decoder) *Certificate {
	return decodeOptCertInto(&Certificate{}, nil, nil, d)
}

// decodeOptCertInto decodes an optional certificate into caller-provided
// storage: signers and sigs are zero-length slices (over a decode arena's
// fixed arrays, or nil), used as long as the signer count fits and
// replaced by exact-size heap slices when it does not. The marker, like
// every byte field, aliases the frame or the decoder's scratch.
func decodeOptCertInto(c *Certificate, signers []ReplicaID, sigs [][]byte, d *decoder) *Certificate {
	tag := d.u8()
	if tag == 0 {
		return nil
	}
	if tag > certMarkedTag {
		d.fail(fmt.Errorf("types: unknown certificate form %d", tag))
		return nil
	}
	c.Kind = CertKind(d.u8())
	c.Round = Round(d.u64())
	c.Block = d.id()
	n := d.u32()
	if d.err != nil || n > maxSliceLen/8 {
		d.fail(ErrTruncated)
		return nil
	}
	if int(n) > cap(signers) {
		signers = make([]ReplicaID, 0, n)
		sigs = make([][]byte, 0, n)
	}
	for i := uint32(0); i < n && d.err == nil; i++ {
		signers = append(signers, ReplicaID(d.u16()))
		sigs = append(sigs, d.bytes())
	}
	if n > 0 {
		c.Signers = signers
		c.Sigs = sigs
	}
	if tag == certMarkedTag {
		c.Fast = d.bytes()
	}
	return c
}

func encodeHeader(e *encoder, h *BlockHeader) {
	e.u64(uint64(h.Round))
	e.u32(h.Epoch)
	e.u16(uint16(h.Proposer))
	e.u16(uint16(h.Rank))
	e.id(h.Parent)
	e.hash(h.PayloadDigest)
}

func decodeHeader(d *decoder) BlockHeader {
	return BlockHeader{
		Round:         Round(d.u64()),
		Epoch:         d.u32(),
		Proposer:      ReplicaID(d.u16()),
		Rank:          Rank(d.u16()),
		Parent:        d.id(),
		PayloadDigest: d.hash(),
	}
}

func encodeOptUnlock(e *encoder, u *UnlockProof) {
	if u == nil {
		e.bool(false)
		return
	}
	e.bool(true)
	e.u64(uint64(u.Round))
	e.id(u.Block)
	e.bool(u.All)
	e.u32(uint32(len(u.Entries)))
	for i := range u.Entries {
		en := &u.Entries[i]
		encodeHeader(e, &en.Header)
		e.u32(uint32(len(en.Voters)))
		for i, v := range en.Voters {
			e.u16(uint16(v))
			e.bytes(en.Sigs[i])
		}
	}
}

func decodeOptUnlock(d *decoder) *UnlockProof {
	if !d.bool() {
		return nil
	}
	u := &UnlockProof{
		Round: Round(d.u64()),
		Block: d.id(),
		All:   d.bool(),
	}
	n := d.u32()
	if d.err != nil || n > maxSliceLen/8 {
		d.fail(ErrTruncated)
		return nil
	}
	if n > 0 {
		u.Entries = make([]UnlockEntry, 0, n)
	}
	for i := uint32(0); i < n && d.err == nil; i++ {
		en := UnlockEntry{Header: decodeHeader(d)}
		m := d.u32()
		if d.err != nil || m > maxSliceLen/8 {
			d.fail(ErrTruncated)
			break
		}
		if m > 0 {
			en.Voters = make([]ReplicaID, 0, m)
			en.Sigs = make([][]byte, 0, m)
		}
		for j := uint32(0); j < m && d.err == nil; j++ {
			en.Voters = append(en.Voters, ReplicaID(d.u16()))
			en.Sigs = append(en.Sigs, d.bytes())
		}
		u.Entries = append(u.Entries, en)
	}
	return u
}
