// Package mempool supplies block payloads.
//
// Two sources are provided, matching the repository's two modes of use:
//
//   - Synthetic: the paper's benchmark workload (section 9.2) — the leader
//     generates a pseudo-random bit vector of a configured size for every
//     block it proposes. Used by the simulator and the benchmarks.
//   - Pool: a submitter-sharded FIFO transaction mempool for the SMR
//     example applications — clients submit opaque transactions, proposers
//     drain them into block payloads (or dissemination batches) up to a
//     size limit. A payload is the list of transactions drained
//     (types.TxsPayload), so the pool copies no transaction after
//     Submit; the TCP transport copies one under types.RefMin into its
//     frame head.
package mempool

import (
	"encoding/binary"
	"errors"
	"sync"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Typed Submit rejections, surfaced through the replica metrics registry
// so operators can tell admission failures apart.
var (
	// ErrTxEmpty rejects zero-length transactions.
	ErrTxEmpty = errors.New("mempool: empty transaction")
	// ErrTxTooLarge rejects a transaction that cannot fit one batch (or
	// block) even alone. The transaction is refused outright — never
	// silently truncated or stranded in the queue.
	ErrTxTooLarge = errors.New("mempool: transaction exceeds batch size limit")
	// ErrPoolFull rejects a transaction when buffering it would exceed the
	// pool's byte budget.
	ErrPoolFull = errors.New("mempool: pool is full")
)

// Synthetic produces fixed-size pseudo-random payloads, one per proposal.
// It is safe for single-goroutine use (engines run single-threaded).
type Synthetic struct {
	size int
	seed uint64
	n    uint64
	// Materialized controls whether payloads carry real bytes (needed on
	// the TCP transport) or stay as size-only descriptors (simulation).
	materialized bool
}

var _ protocol.PayloadSource = (*Synthetic)(nil)

// NewSynthetic builds a source of size-byte payloads derived from seed.
func NewSynthetic(size int, seed uint64, materialized bool) *Synthetic {
	return &Synthetic{size: size, seed: seed, materialized: materialized}
}

// NextPayload implements protocol.PayloadSource.
func (s *Synthetic) NextPayload(round types.Round) types.Payload {
	s.n++
	sub := s.seed ^ uint64(round)<<20 ^ s.n
	p := types.SyntheticPayload(s.size, sub)
	if s.materialized {
		return types.BytesPayload(p.Materialize())
	}
	return p
}

// CutBatch implements dissem.Source: the synthetic workload is a
// bottomless transaction supply, so every cut yields a full batch of max
// bytes with a fresh seed. The dissemination store's inventory target is
// what bounds the cut rate.
func (s *Synthetic) CutBatch(max int) types.Payload {
	if max <= 0 {
		return types.Payload{}
	}
	s.n++
	p := types.SyntheticPayload(max, s.seed^0xD15E<<40^s.n)
	if s.materialized {
		return types.BytesPayload(p.Materialize())
	}
	return p
}

// Pool is a bounded, submitter-sharded FIFO transaction mempool. It is
// safe for concurrent use: the node runtime calls NextPayload/CutBatch
// from the engine goroutine while clients Submit from anywhere.
//
// Sharding: each submitter hashes to one of the pool's shards (per-shard
// FIFO), and batch construction drains shards round-robin, one
// transaction per non-empty shard per pass. One heavy submitter therefore
// cannot starve the others, and the drain order is a deterministic
// function of the submission sequence — the property the dissemination
// layer's same-sequence equivalence with inline payloads rests on.
//
// One mutex guards the queues. Submit holds it for a copy of the
// transaction and an append; NextPayload/CutBatch hold it while they
// detach the transactions that fit (pointer and length work only), and the
// detached list becomes the payload as it is, so no lock covers a batch
// copy.
//
// A payload's bytes are its transactions, each behind its length;
// DecodeBatch recovers the transactions on commit.
type Pool struct {
	mu       sync.Mutex // guards shards and bytes
	shards   []poolShard
	bytes    int
	maxBytes int // cap on buffered bytes; Submit fails beyond it
	maxBlock int // cap on bytes drained into one payload

	rejectedOversize int64
	rejectedFull     int64
}

type poolShard struct {
	txs [][]byte
}

var _ protocol.PayloadSource = (*Pool)(nil)

// NewPool creates a single-shard mempool buffering at most maxBytes of
// transactions and draining at most maxBlock bytes per block.
func NewPool(maxBytes, maxBlock int) *Pool {
	return NewShardedPool(maxBytes, maxBlock, 1)
}

// NewShardedPool creates a mempool with the given number of submitter
// shards.
func NewShardedPool(maxBytes, maxBlock, shards int) *Pool {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	if maxBlock <= 0 {
		maxBlock = 1 << 20
	}
	if shards <= 0 {
		shards = 1
	}
	return &Pool{maxBytes: maxBytes, maxBlock: maxBlock, shards: make([]poolShard, shards)}
}

// Submit queues a transaction from the anonymous submitter; it reports
// false when the pool rejects it. Use SubmitErr for the typed reason.
func (p *Pool) Submit(tx []byte) bool { return p.SubmitErr(tx) == nil }

// SubmitErr queues a transaction from the anonymous submitter, returning
// the typed rejection (ErrTxEmpty, ErrTxTooLarge, ErrPoolFull) on
// failure.
func (p *Pool) SubmitErr(tx []byte) error { return p.SubmitFrom(0, tx) }

// SubmitFrom queues a transaction from the given submitter, routing it to
// that submitter's shard.
func (p *Pool) SubmitFrom(submitter uint64, tx []byte) error {
	if len(tx) == 0 {
		return ErrTxEmpty
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(tx)+4 > p.maxBlock {
		p.rejectedOversize++
		return ErrTxTooLarge
	}
	if p.bytes+len(tx) > p.maxBytes {
		p.rejectedFull++
		return ErrPoolFull
	}
	cp := make([]byte, len(tx))
	copy(cp, tx)
	sh := &p.shards[int(submitter%uint64(len(p.shards)))]
	sh.txs = append(sh.txs, cp)
	p.bytes += len(tx)
	return nil
}

// Len returns the number of queued transactions.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for i := range p.shards {
		n += len(p.shards[i].txs)
	}
	return n
}

// Metrics reports the pool's admission counters into m.
func (p *Pool) Metrics(m map[string]int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m["mempoolRejectedOversize"] = p.rejectedOversize
	m["mempoolRejectedFull"] = p.rejectedFull
}

// claim detaches up to budget bytes of transactions (including their
// 4-byte length prefixes) from the shards, round-robin one transaction
// per non-empty shard per pass, FIFO within a shard, always starting at
// shard 0 so the drain order is a pure function of the queue state.
// Returns the claimed transactions in drain order.
func (p *Pool) claim(budget int) [][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	var (
		claimed [][]byte
		size    int
	)
	for {
		progress := false
		for i := 0; i < len(p.shards); i++ {
			sh := &p.shards[i]
			if len(sh.txs) == 0 {
				continue
			}
			tx := sh.txs[0]
			if size+4+len(tx) > budget {
				continue
			}
			sh.txs = sh.txs[1:]
			claimed = append(claimed, tx)
			size += 4 + len(tx)
			p.bytes -= len(tx)
			progress = true
		}
		if !progress {
			break
		}
	}
	return claimed
}

// NextPayload implements protocol.PayloadSource: drains queued
// transactions into a payload of at most maxBlock bytes, length prefixes
// included. An empty pool yields an empty payload (empty blocks keep the
// chain growing, as in the paper's implementation).
func (p *Pool) NextPayload(types.Round) types.Payload {
	return types.TxsPayload(p.claim(p.maxBlock))
}

// CutBatch implements dissem.Source: identical drain discipline to
// NextPayload, but bounded by the dissemination layer's batch size. Since
// both paths share claim's round-robin order, a chain built from
// disseminated batches commits the same transaction sequence an inline
// chain would.
func (p *Pool) CutBatch(max int) types.Payload {
	if max > p.maxBlock {
		max = p.maxBlock
	}
	return types.TxsPayload(p.claim(max))
}

// DecodeBatch splits a payload produced by Pool.NextPayload back into
// transactions. It returns nil for empty or malformed payloads. The
// result of a list payload is the list itself, clipped so that appending
// to it allocates: the list may be shared, as every replica on an
// in-process hub holds the leader's payload.
func DecodeBatch(payload types.Payload) [][]byte {
	if txs := payload.Txs(); len(txs) > 0 {
		for _, tx := range txs {
			if len(tx) == 0 {
				return nil
			}
		}
		return txs[:len(txs):len(txs)]
	}
	data := payload.Data
	var txs [][]byte
	for len(data) >= 4 {
		n := binary.LittleEndian.Uint32(data[:4])
		data = data[4:]
		if int(n) > len(data) || n == 0 {
			return nil
		}
		txs = append(txs, data[:n])
		data = data[n:]
	}
	if len(data) != 0 {
		return nil
	}
	return txs
}
