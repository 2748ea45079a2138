// Package dissem decouples payload dissemination from ordering: replicas
// cut mempool transactions into self-certifying batches (digest-addressed,
// sharded by the submitting replica), broadcast the batch bodies
// continuously off the consensus path, and track per-peer availability
// acks. Blocks then commit an ordered list of batch digests (plus a small
// inline tail) instead of carrying bytes, so the vote path's message size
// is independent of block size and the broadcast load is shared by every
// replica instead of riding the leader's uplink — the first step toward
// parallel-leader throughput (FnF-BFT's argument, see ROADMAP).
//
// The Store is passive, driven by the consensus engine's event handlers
// like everything else in this repository: it holds batch bodies by
// digest, cuts new batches from a Source, counts availability acks for
// the replica's own batches, and — as the engine's PayloadSource —
// assembles proposals from acked batches. Consensus votes on headers
// immediately; only *delivery* of finalized blocks waits for bodies. The
// bodies a finalized block references but the store does not hold are
// fetched on miss through the engine's retrieval layer (internal/fetch),
// origin first.
package dissem

import (
	"sync"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Source provides the transactions a replica cuts into batches. The
// mempool implements it over client submissions; the harness implements
// it with synthetic bit vectors. CutBatch removes up to max logical bytes
// from the source and returns them as one batch body; a zero-size payload
// means nothing is queued. Implementations must be safe for concurrent
// use (the store serializes its own calls, but hosts may also submit).
type Source interface {
	CutBatch(max int) types.Payload
}

// Config assembles a Store.
type Config struct {
	// Self is the replica that owns the store.
	Self types.ReplicaID
	// N is the cluster size.
	N int
	// BatchBytes is the cut size: batches are at most this many logical
	// bytes. Default 64 KiB.
	BatchBytes int
	// InlineMax bounds the inline tail a proposal may carry alongside its
	// batch refs (latency-sensitive transactions skip dissemination).
	// Default 0: everything rides in batches.
	InlineMax int
	// AckQuorum is the number of distinct peers that must acknowledge a
	// batch before the owner references it from a proposal; f+1 guarantees
	// at least one honest holder besides the origin, so a finalized batch
	// survives the origin's disk loss. Default (N-1)/3 + 1.
	AckQuorum int
	// BlockBytes bounds the total logical payload of one proposal.
	// Default 1 MiB.
	BlockBytes int
	// Source supplies transactions to cut. Nil means the store only
	// receives batches (a non-proposing observer).
	Source Source
}

// ownBatch is one batch this replica cut and still intends to propose.
type ownBatch struct {
	ref   types.BatchRef
	acked map[types.ReplicaID]struct{}
}

// Store is a replica's view of the dissemination layer. It is shared
// between the consensus engine (payload assembly, availability gating)
// and the host (delivery-time body lookup), so it carries its own lock;
// every method is safe for concurrent use.
type Store struct {
	mu  sync.Mutex
	cfg Config

	bodies    map[[32]byte]types.Payload
	delivered map[[32]byte]types.Round // digest -> round it was delivered in

	own      []ownBatch // cut order; proposals take the acked prefix
	announce []*types.BatchAnnounce

	cut       int64 // batches cut from the source
	acks      int64 // availability acks recorded
	announced int64 // bodies handed out for broadcast
}

// NewStore creates a store. See Config for defaults.
func NewStore(cfg Config) *Store {
	if cfg.BatchBytes <= 0 {
		cfg.BatchBytes = 64 << 10
	}
	if cfg.BlockBytes <= 0 {
		cfg.BlockBytes = 1 << 20
	}
	if cfg.AckQuorum <= 0 {
		cfg.AckQuorum = (cfg.N-1)/3 + 1
	}
	if cfg.InlineMax < 0 {
		cfg.InlineMax = 0
	}
	return &Store{
		cfg:       cfg,
		bodies:    make(map[[32]byte]types.Payload),
		delivered: make(map[[32]byte]types.Round),
	}
}

// TakeAnnounces cuts new batches from the source until the replica's
// pending (cut but unproposed) inventory covers the next proposal with
// cushion, stores their bodies, and returns the announce messages to
// broadcast. The engine drains this after every event, which makes
// dissemination continuous without its own timer: bodies start traveling
// the moment transactions arrive, long before any proposal names them.
func (s *Store) TakeAnnounces() []*types.BatchAnnounce {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Source != nil {
		pending := 0
		for _, b := range s.own {
			pending += int(b.ref.Size)
		}
		// One block of acked inventory plus one block in the ack pipeline.
		for target := 2 * s.cfg.BlockBytes; pending < target; {
			body := s.cfg.Source.CutBatch(s.cfg.BatchBytes)
			size := body.Size()
			if size == 0 {
				break
			}
			digest := body.Digest()
			s.bodies[digest] = body
			s.own = append(s.own, ownBatch{
				ref:   types.BatchRef{Digest: digest, Size: uint32(size)},
				acked: make(map[types.ReplicaID]struct{}),
			})
			s.announce = append(s.announce, &types.BatchAnnounce{
				Origin: s.cfg.Self,
				Digest: digest,
				Body:   body,
			})
			s.cut++
			pending += size
		}
	}
	out := s.announce
	s.announce = nil
	s.announced += int64(len(out))
	return out
}

// Put stores a batch body received from the network. The caller must have
// verified body.Digest() == digest (the self-certifying check). Reports
// whether the body was new.
func (s *Store) Put(digest [32]byte, body types.Payload) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.bodies[digest]; ok {
		return false
	}
	s.bodies[digest] = body
	return true
}

// Get returns a stored batch body.
func (s *Store) Get(digest [32]byte) (types.Payload, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.bodies[digest]
	return b, ok
}

// Has reports whether the store holds a body.
func (s *Store) Has(digest [32]byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.bodies[digest]
	return ok
}

// RecordAck notes that peer holds one of this replica's own batches.
func (s *Store) RecordAck(digest [32]byte, peer types.ReplicaID) {
	if peer == s.cfg.Self {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.own {
		if s.own[i].ref.Digest == digest {
			if _, dup := s.own[i].acked[peer]; !dup {
				s.own[i].acked[peer] = struct{}{}
				s.acks++
			}
			return
		}
	}
}

// NextPayload implements protocol.PayloadSource: a proposal commits the
// acked prefix of the replica's own batch queue (cut order — FIFO keeps
// the committed transaction sequence equal to inline mode), up to the
// block byte budget, plus an inline tail cut directly from the source.
// Batches whose acks have not reached quorum stay queued for a later
// round; an empty payload is a valid proposal, so availability can never
// stall the vote path.
func (s *Store) NextPayload(types.Round) types.Payload {
	s.mu.Lock()
	defer s.mu.Unlock()
	var refs []types.BatchRef
	used := 0
	taken := 0
	for _, b := range s.own {
		if len(b.acked) < s.cfg.AckQuorum {
			break
		}
		if used+int(b.ref.Size) > s.cfg.BlockBytes && used > 0 {
			break
		}
		refs = append(refs, b.ref)
		used += int(b.ref.Size)
		taken++
		if used >= s.cfg.BlockBytes {
			break
		}
	}
	s.own = s.own[taken:]
	var inline []byte
	if s.cfg.Source != nil && s.cfg.InlineMax > 0 && used < s.cfg.BlockBytes {
		max := s.cfg.InlineMax
		if rem := s.cfg.BlockBytes - used; rem < max {
			max = rem
		}
		if tail := s.cfg.Source.CutBatch(max); tail.Size() > 0 {
			inline = tail.Materialize()
		}
	}
	if len(refs) == 0 && inline == nil {
		return types.Payload{}
	}
	return types.BatchPayload(refs, inline)
}

// Missing returns the digests of the payload's batch refs whose bodies
// the store does not hold — the fetch-on-miss work list for delivery
// gating. A nil result means the payload is deliverable now.
func (s *Store) Missing(p types.Payload) [][32]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var missing [][32]byte
	for _, r := range p.Batches {
		if _, ok := s.bodies[r.Digest]; !ok {
			missing = append(missing, r.Digest)
		}
	}
	return missing
}

// Bodies returns the payload's referenced batch bodies in ref order.
// Reports false (with no bodies) if any is missing.
func (s *Store) Bodies(p types.Payload) ([]types.Payload, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]types.Payload, 0, len(p.Batches))
	for _, r := range p.Batches {
		b, ok := s.bodies[r.Digest]
		if !ok {
			return nil, false
		}
		out = append(out, b)
	}
	return out, true
}

// MarkDelivered records that the payload's batches were delivered in
// round r, making their bodies eligible for compaction once the
// retention window moves past r.
func (s *Store) MarkDelivered(p types.Payload, r types.Round) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ref := range p.Batches {
		if cur, ok := s.delivered[ref.Digest]; !ok || r > cur {
			s.delivered[ref.Digest] = r
		}
	}
}

// Compact drops bodies of batches delivered before floor, mirroring the
// engine's block-tree pruning: within the retention window bodies stay
// serveable (BatchRequest, restart refetch); behind it they are gone along
// with the blocks that referenced them. Undelivered bodies are kept.
func (s *Store) Compact(floor types.Round) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for digest, r := range s.delivered {
		if r < floor {
			delete(s.bodies, digest)
			delete(s.delivered, digest)
		}
	}
}

// HeldBytes returns the total size of batch bodies currently held —
// the live footprint of the dissemination plane. Scrape-cadence only
// (it walks the body map under the lock); the hot paths never call it.
func (s *Store) HeldBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, b := range s.bodies {
		n += int64(b.Size())
	}
	return n
}

// Metrics reports the store's counters into m under dissem-prefixed keys.
func (s *Store) Metrics(m map[string]int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m["dissemBatchesCut"] = s.cut
	m["dissemAcks"] = s.acks
	m["dissemAnnounced"] = s.announced
	m["dissemBodiesHeld"] = int64(len(s.bodies))
	m["dissemOwnPending"] = int64(len(s.own))
}

var _ protocol.PayloadSource = (*Store)(nil)
