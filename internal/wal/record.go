package wal

import (
	"encoding/binary"
	"fmt"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Kind tags what a record journals.
type Kind uint8

const (
	// KindInbound is a consensus message received from a peer. The
	// Recorder no longer writes it; the codec still reads it, so a log
	// written when it did recovers past such records, which restart skips.
	KindInbound Kind = iota + 1
	// KindOwn is a message this replica signed (its proposal or a vote),
	// appended before the transport sends it. These records restore the
	// replica's own voting record on restart, which is what prevents
	// post-restart equivocation.
	KindOwn
	// KindCommit is a finalization decision: the explicitly finalized
	// block, the path that finalized it, and the size of the committed
	// batch. The Recorder no longer writes it; the codec still reads it,
	// so a log written when it did recovers past such records, which
	// restart ignores.
	KindCommit
	// KindCheckpoint is an engine snapshot (protocol.Snapshot): the
	// finalized chain window plus the replica's own voting record for
	// live rounds. Recovery replays from the newest checkpoint instead of
	// the beginning of history, and the log truncates the segments behind
	// it, bounding both restart replay and disk usage.
	KindCheckpoint
)

func (k Kind) String() string {
	switch k {
	case KindInbound:
		return "inbound"
	case KindOwn:
		return "own"
	case KindCommit:
		return "commit"
	case KindCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one journal entry.
type Record struct {
	Kind Kind
	// From is the sending replica (KindInbound only).
	From types.ReplicaID
	// Msg is the wire message (KindInbound and KindOwn).
	Msg types.Message
	// Round, Block, Mode and Blocks describe a finalization (KindCommit):
	// the explicitly finalized block and protocol.FinalizationMode, plus
	// the number of blocks the commit delivered (ancestors included).
	Round  types.Round
	Block  types.BlockID
	Mode   uint8
	Blocks uint32
	// Snapshot is the engine state a checkpoint journals (KindCheckpoint).
	Snapshot *protocol.Snapshot
}

// payloadSize returns the exact appendPayload length, so callers can
// reserve capacity (pooled buffers) and skip growth entirely.
func (r Record) payloadSize() int {
	switch r.Kind {
	case KindInbound:
		return 3 + types.EncodedSize(r.Msg)
	case KindOwn:
		return 1 + types.EncodedSize(r.Msg)
	case KindCommit:
		return 1 + 8 + 32 + 1 + 4
	case KindCheckpoint:
		if r.Snapshot == nil {
			return 1 // appendPayload reports the real error
		}
		s := 1 + 8 + 8 + 4 + 4 + 4
		for _, b := range r.Snapshot.Chain {
			s += types.BlockEncodedSize(b)
		}
		for _, m := range r.Snapshot.Own {
			s += 4 + types.EncodedSize(m)
		}
		for _, d := range r.Snapshot.Sets {
			s += d.EncodedSize()
		}
		return s
	default:
		return 0
	}
}

// appendPayload appends the record payload to buf (the CRC frame is the
// Log's job). A message body is encoded straight into buf (a received
// message's bytes are copied as they arrived), so with a pooled buffer
// journaling allocates nothing.
func (r Record) appendPayload(buf []byte) ([]byte, error) {
	switch r.Kind {
	case KindInbound:
		buf = append(buf, byte(KindInbound))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(r.From))
		return types.AppendMessage(buf, r.Msg)
	case KindOwn:
		buf = append(buf, byte(KindOwn))
		return types.AppendMessage(buf, r.Msg)
	case KindCommit:
		buf = append(buf, byte(KindCommit))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Round))
		buf = append(buf, r.Block[:]...)
		buf = append(buf, r.Mode)
		return binary.LittleEndian.AppendUint32(buf, r.Blocks), nil
	case KindCheckpoint:
		s := r.Snapshot
		if s == nil {
			return nil, fmt.Errorf("wal: checkpoint record without snapshot")
		}
		buf = append(buf, byte(KindCheckpoint))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Round))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.FinalizedRound))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Chain)))
		for _, b := range s.Chain {
			buf = types.AppendBlock(buf, b)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Own)))
		for _, m := range s.Own {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(types.EncodedSize(m)))
			var err error
			if buf, err = types.AppendMessage(buf, m); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Sets)))
		for _, d := range s.Sets {
			buf = types.AppendValidatorSetDesc(buf, d)
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("wal: cannot encode record kind %d", r.Kind)
	}
}

// encode serializes the record payload into a fresh buffer.
func (r Record) encode() ([]byte, error) {
	return r.appendPayload(make([]byte, 0, r.payloadSize()))
}

// maxCheckpointItems bounds the chain and message counts a checkpoint
// claims, so a corrupt length prefix cannot drive a huge allocation.
const maxCheckpointItems = 1 << 20

// decodeRecord parses a payload produced by appendPayload. Any
// malformation is an error — recovery treats it as the end of the
// durable prefix. Byte fields are copied out of payload (recovery scans
// whole segments; aliasing would pin them in memory).
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, fmt.Errorf("wal: empty record")
	}
	switch Kind(payload[0]) {
	case KindInbound:
		if len(payload) < 4 {
			return Record{}, fmt.Errorf("wal: truncated inbound record")
		}
		msg, err := types.DecodeMessage(payload[3:])
		if err != nil {
			return Record{}, fmt.Errorf("wal: %w", err)
		}
		return Record{
			Kind: KindInbound,
			From: types.ReplicaID(binary.LittleEndian.Uint16(payload[1:3])),
			Msg:  msg,
		}, nil
	case KindOwn:
		if len(payload) < 2 {
			return Record{}, fmt.Errorf("wal: truncated own record")
		}
		msg, err := types.DecodeMessage(payload[1:])
		if err != nil {
			return Record{}, fmt.Errorf("wal: %w", err)
		}
		return Record{Kind: KindOwn, Msg: msg}, nil
	case KindCommit:
		if len(payload) != 1+8+32+1+4 {
			return Record{}, fmt.Errorf("wal: bad commit record length %d", len(payload))
		}
		r := Record{
			Kind:   KindCommit,
			Round:  types.Round(binary.LittleEndian.Uint64(payload[1:9])),
			Mode:   payload[41],
			Blocks: binary.LittleEndian.Uint32(payload[42:46]),
		}
		copy(r.Block[:], payload[9:41])
		return r, nil
	case KindCheckpoint:
		return decodeCheckpoint(payload)
	default:
		return Record{}, fmt.Errorf("wal: unknown record kind %d", payload[0])
	}
}

func decodeCheckpoint(payload []byte) (Record, error) {
	fail := func(what string) (Record, error) {
		return Record{}, fmt.Errorf("wal: truncated checkpoint record (%s)", what)
	}
	off := 1
	if len(payload) < off+8+8+4 {
		return fail("header")
	}
	s := &protocol.Snapshot{
		Round:          types.Round(binary.LittleEndian.Uint64(payload[off : off+8])),
		FinalizedRound: types.Round(binary.LittleEndian.Uint64(payload[off+8 : off+16])),
	}
	off += 16
	nChain := binary.LittleEndian.Uint32(payload[off : off+4])
	off += 4
	if nChain > maxCheckpointItems {
		return fail("chain count")
	}
	for i := uint32(0); i < nChain; i++ {
		b, n, err := types.DecodeBlockPrefix(payload[off:])
		if err != nil {
			return Record{}, fmt.Errorf("wal: checkpoint chain block %d: %w", i, err)
		}
		if b == nil {
			return fail("nil chain block")
		}
		s.Chain = append(s.Chain, b)
		off += n
	}
	if len(payload) < off+4 {
		return fail("message count")
	}
	nOwn := binary.LittleEndian.Uint32(payload[off : off+4])
	off += 4
	if nOwn > maxCheckpointItems {
		return fail("message count")
	}
	for i := uint32(0); i < nOwn; i++ {
		if len(payload) < off+4 {
			return fail("message length")
		}
		n := int(binary.LittleEndian.Uint32(payload[off : off+4]))
		off += 4
		if n <= 0 || len(payload) < off+n {
			return fail("message body")
		}
		m, err := types.DecodeMessage(payload[off : off+n])
		if err != nil {
			return Record{}, fmt.Errorf("wal: checkpoint message %d: %w", i, err)
		}
		s.Own = append(s.Own, m)
		off += n
	}
	if len(payload) < off+4 {
		return fail("set count")
	}
	nSets := binary.LittleEndian.Uint32(payload[off : off+4])
	off += 4
	if nSets > types.MaxSnapshotSets {
		return fail("set count")
	}
	for i := uint32(0); i < nSets; i++ {
		d, n, err := types.DecodeValidatorSetDescPrefix(payload[off:])
		if err != nil {
			return Record{}, fmt.Errorf("wal: checkpoint validator set %d: %w", i, err)
		}
		s.Sets = append(s.Sets, d)
		off += n
	}
	if off != len(payload) {
		return Record{}, fmt.Errorf("wal: %d trailing bytes in checkpoint record", len(payload)-off)
	}
	return Record{Kind: KindCheckpoint, Round: s.FinalizedRound, Snapshot: s}, nil
}
