package types

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Payload is the opaque content of a block.
//
// Two representations are supported:
//
//   - Concrete: the actual bytes (SMR applications, TCP runs), in one of
//     two forms with the same bytes, Digest and encoding. Data holds them
//     contiguously (BytesPayload), or a list of transactions stands for
//     each transaction behind its little-endian uint32 length, laid end
//     to end (TxsPayload): a mempool batch is the list it claimed, and
//     the hash and the encoder walk it without building the bytes.
//   - Synthetic: Data is nil and SynthSize/SynthSeed describe a pseudo-random
//     bit vector of that size, as generated by the paper's leader workload
//     (section 9.2). Synthetic payloads let the discrete-event simulator model
//     multi-megabyte blocks without allocating them; their wire size is
//     accounted as if the bytes were present.
//
// Both forms have a stable Digest so consensus treats them identically.
//
// A third representation decouples dissemination from ordering: when
// Batches is non-empty the payload *references* batch bodies by digest
// instead of carrying them. The block commits the ordered digest list
// (plus an optional inline tail in Data, which the wire form carries but
// honest proposers leave empty; such a payload never carries a list); the
// bodies travel out-of-band through internal/dissem. Size still
// reports the logical byte count — inline tail plus the sum of the
// referenced batch sizes — so throughput accounting is representation-
// independent, while the wire encoding of the proposal stays a few bytes
// per batch no matter how large the bodies are.
// A fourth, orthogonal dimension carries reconfiguration: when Change is
// non-nil the block additionally proposes a validator-set change
// (internal/membership applies it once the block finalizes). The change
// rides alongside any of the three content forms and is covered by the
// payload digest, so the block ID commits to it.
type Payload struct {
	Data      []byte
	SynthSize uint32
	SynthSeed uint64
	Batches   []BatchRef
	Change    *ConfigChange

	// txs is the list form of a concrete payload (TxsPayload); nil in
	// every other form.
	txs [][]byte
}

// BatchRef names one disseminated batch: the digest addresses the body
// (self-certifying — a fetched body is checked against it) and Size is the
// body's logical byte count, so replicas can account bandwidth and
// throughput for a block before holding its bodies.
type BatchRef struct {
	Digest [32]byte
	Size   uint32
}

// ConfigOp distinguishes the two validator-set operations.
type ConfigOp uint8

const (
	// ConfigAdd admits a new validator (ID + public key) to the set.
	ConfigAdd ConfigOp = iota + 1
	// ConfigRemove evicts a validator from the set; its key stays in the
	// global registry so certificates from earlier epochs keep verifying.
	ConfigRemove
)

func (op ConfigOp) String() string {
	switch op {
	case ConfigAdd:
		return "add"
	case ConfigRemove:
		return "remove"
	default:
		return fmt.Sprintf("ConfigOp(%d)", uint8(op))
	}
}

// Valid reports whether op is a defined operation.
func (op ConfigOp) Valid() bool { return op == ConfigAdd || op == ConfigRemove }

// ConfigChange proposes one validator-set change. A finalized block whose
// payload carries a change at round R activates the resulting set at round
// R+1 (the activation rule; see internal/membership). PubKey is the
// joining validator's public key for ConfigAdd and must be empty for
// ConfigRemove.
type ConfigChange struct {
	Op      ConfigOp
	Replica ReplicaID
	PubKey  []byte
}

// Equal reports whether two changes describe the same operation.
func (c *ConfigChange) Equal(o *ConfigChange) bool {
	if c == nil || o == nil {
		return c == o
	}
	return c.Op == o.Op && c.Replica == o.Replica && bytes.Equal(c.PubKey, o.PubKey)
}

func (c *ConfigChange) String() string {
	if c == nil {
		return "change{nil}"
	}
	return fmt.Sprintf("change{%s %d}", c.Op, c.Replica)
}

// BytesPayload wraps concrete bytes as a payload.
func BytesPayload(data []byte) Payload { return Payload{Data: data} }

// TxsPayload wraps a list of transactions as a concrete payload: the
// payload of BytesPayload(each tx behind its little-endian uint32 length,
// end to end), with the same Digest, Size and wire encoding, but built
// without copying a transaction. The list and its transactions must never
// be modified afterwards.
func TxsPayload(txs [][]byte) Payload { return Payload{txs: txs} }

// Txs returns the list a TxsPayload wraps; nil for every other form.
func (p Payload) Txs() [][]byte { return p.txs }

// ConfigChangePayload attaches a validator-set change to inner (the change
// is part of payload identity).
func ConfigChangePayload(change ConfigChange, inner Payload) Payload {
	inner.Change = &change
	return inner
}

// WithoutChange returns the payload's content with any validator-set
// change detached.
func (p Payload) WithoutChange() Payload {
	p.Change = nil
	return p
}

// BatchPayload builds a digest-list payload: refs is the ordered list of
// disseminated batches the block commits, inline an optional concrete tail
// appended after them at delivery.
func BatchPayload(refs []BatchRef, inline []byte) Payload {
	return Payload{Batches: refs, Data: inline}
}

// HasBatches reports whether the payload references out-of-band batches.
func (p Payload) HasBatches() bool { return len(p.Batches) > 0 }

// SyntheticPayload describes a pseudo-random payload of size bytes derived
// from seed, without materializing it.
func SyntheticPayload(size int, seed uint64) Payload {
	return Payload{SynthSize: uint32(size), SynthSeed: seed}
}

// IsSynthetic reports whether the payload is a size-only placeholder.
func (p Payload) IsSynthetic() bool { return p.Data == nil && p.SynthSize > 0 }

// Size returns the logical payload size in bytes: the quantity that counts
// toward throughput and toward simulated bandwidth usage. For digest-list
// payloads it is the inline tail plus the referenced batch sizes, so a
// block's committed byte count does not depend on whether bodies ride
// inline or out-of-band.
func (p Payload) Size() int {
	s := int(p.SynthSize)
	if p.Data != nil {
		s = len(p.Data)
	}
	for _, tx := range p.txs {
		s += 4 + len(tx)
	}
	for _, r := range p.Batches {
		s += int(r.Size)
	}
	return s
}

// Digest returns a stable content digest. For synthetic payloads it
// hashes the (size, seed) descriptor, which identifies the pseudo-random
// content. Empty payloads digest identically whether represented as nil
// Data, empty Data, or a zero-size synthetic descriptor, so wire
// round-trips preserve block identity. It is computed on each call: a
// block keeps its payload's digest in its header (Block.ID), and nothing
// else reads one twice.
func (p *Payload) Digest() [32]byte {
	base := p.computeBaseDigest()
	if p.Change == nil {
		return base
	}
	// Reconfig wrapper: bind the change (op, replica, key) on top of the
	// content digest under its own domain, so a change-bearing payload can
	// never collide with the same bytes sans change.
	h := sha256.New()
	h.Write([]byte("banyan/payload/reconfig/v1"))
	var hdr [7]byte
	hdr[0] = byte(p.Change.Op)
	binary.LittleEndian.PutUint16(hdr[1:3], uint16(p.Change.Replica))
	binary.LittleEndian.PutUint32(hdr[3:7], uint32(len(p.Change.PubKey)))
	h.Write(hdr[:])
	h.Write(p.Change.PubKey)
	h.Write(base[:])
	var d [32]byte
	h.Sum(d[:0])
	return d
}

func (p *Payload) computeBaseDigest() [32]byte {
	h := sha256.New()
	if len(p.Batches) > 0 {
		// Digest-list payload: hash the ordered refs (digest and size) plus
		// the inline tail. The block ID therefore commits exactly which
		// bodies, in which order, at which sizes — swapping or resizing a
		// batch changes block identity.
		var buf [36]byte
		h.Write([]byte("banyan/payload/batches/v1"))
		binary.LittleEndian.PutUint32(buf[0:4], uint32(len(p.Batches)))
		h.Write(buf[0:4])
		for _, r := range p.Batches {
			copy(buf[0:32], r.Digest[:])
			binary.LittleEndian.PutUint32(buf[32:36], r.Size)
			h.Write(buf[:])
		}
		h.Write(p.Data)
		var d [32]byte
		h.Sum(d[:0])
		return d
	}
	if len(p.Data) > 0 {
		h.Write([]byte("banyan/payload/data/v1"))
		h.Write(p.Data)
	} else if len(p.txs) > 0 {
		// The same bytes as the contiguous form, written a piece at a time.
		h.Write([]byte("banyan/payload/data/v1"))
		var prefix [4]byte
		for _, tx := range p.txs {
			binary.LittleEndian.PutUint32(prefix[:], uint32(len(tx)))
			h.Write(prefix[:])
			h.Write(tx)
		}
	} else if p.Size() == 0 {
		h.Write([]byte("banyan/payload/empty/v1"))
	} else {
		var desc [12]byte
		binary.LittleEndian.PutUint32(desc[0:4], p.SynthSize)
		binary.LittleEndian.PutUint64(desc[4:12], p.SynthSeed)
		h.Write([]byte("banyan/payload/synth/v1"))
		h.Write(desc[:])
	}
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// Materialize returns the concrete bytes of the payload, expanding a
// synthetic descriptor into its pseudo-random bit vector. Contiguous
// payloads are returned as-is (not copied); a list is concatenated.
func (p Payload) Materialize() []byte {
	if p.Data != nil {
		return p.Data
	}
	if p.txs != nil {
		out := make([]byte, 0, p.Size())
		for _, tx := range p.txs {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(tx)))
			out = append(out, tx...)
		}
		return out
	}
	out := make([]byte, p.SynthSize)
	// xorshift64* stream seeded by SynthSeed; fast, deterministic filler.
	x := p.SynthSeed
	if x == 0 {
		x = 0x9E3779B97F4A7C15
	}
	for i := 0; i+8 <= len(out); i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(out[i:], x*0x2545F4914F6CDD1D)
	}
	for i := len(out) &^ 7; i < len(out); i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		out[i] = byte(x * 0x2545F4914F6CDD1D)
	}
	return out
}
