// Package dissem decouples payload dissemination from ordering: replicas
// cut mempool transactions into self-certifying batches (digest-addressed,
// sharded by the submitting replica), broadcast the batch bodies
// continuously off the consensus path, and track per-peer availability
// acks. Blocks then commit an ordered list of batch digests instead of
// carrying bytes, so the vote path's message size is independent of block
// size and the broadcast load is shared by every replica instead of
// riding the leader's uplink — the first step toward parallel-leader
// throughput (FnF-BFT's argument, see ROADMAP).
//
// The Store is passive, driven by the consensus engine's event handlers
// like everything else in this repository, and touched only by the
// engine's goroutine: it holds batch bodies by
// digest, cuts new batches from a Source, counts availability acks for
// the replica's own batches, and assembles proposals from one pool of
// proposable batches, whoever cut them: its own once f+1 peers acked
// them, and every other origin's whose body it holds. A proposal skips
// the batches its parent chain already references. A batch leaves the
// pool when a finalized block references it, not when a proposal names
// it, so the batches of an orphaned block, or of an origin that crashed
// before its turn, stay proposable by whoever leads next.
//
// A finalized-digest index over a fixed window of rounds (indexWindow)
// does two jobs: a body that arrives after its digest finalized is stored
// and served but never pooled again, and a ref that an earlier finalized
// block in the window already referenced is marked for delivery to skip.
// The index is a pure function of the finalized chain, so every replica
// skips the same refs. Consensus votes on headers immediately; only
// *delivery* of finalized blocks waits for bodies. The bodies a finalized
// block references but the store does not hold are fetched on miss
// through the engine's retrieval layer (internal/fetch), proposer first:
// a proposer holds every batch it references. Delivery hands the
// application the bodies themselves (Bodies), so a later Compact cannot
// take them from a commit still on its way.
package dissem

import (
	"slices"
	"sync/atomic"

	"banyan/internal/types"
)

// Source provides the transactions a replica cuts into batches. The
// mempool implements it over client submissions; the harness implements
// it with synthetic bit vectors. CutBatch removes up to max logical bytes
// from the source and returns them as one batch body; a zero-size payload
// means nothing is queued. The store calls it from the engine's
// goroutine while hosts submit from others, so implementations must be
// safe for concurrent use.
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
	// AckQuorum is the number of distinct peers that must acknowledge an
	// own batch before this replica references it from a proposal; f+1
	// guarantees at least one honest holder besides the origin, so a
	// finalized batch survives the origin's disk loss. Another origin's
	// batch needs no acks: the replica proposing it holds its body.
	// Default (N-1)/3 + 1.
	AckQuorum int
	// BlockBytes bounds the total logical payload of one proposal.
	// Default 1 MiB.
	BlockBytes int
	// Source supplies transactions to cut. Nil means the store only
	// receives batches (a non-proposing observer).
	Source Source
}

// indexWindow is how many rounds the finalized-digest index remembers a
// digest after the first finalized block that referenced it, counted
// against the highest delivered round. Within it a late body is never
// pooled again and a repeated ref is skipped at delivery; beyond it a
// repeat is delivered again, on every replica alike.
const indexWindow types.Round = 64

// ackInline is how many ack senders an ackSet holds without a slice:
// enough for the f+1 quorum of every committee up to n=24.
const ackInline = 8

// ackSet records the distinct peers that acknowledged an own batch until
// they reach the ack quorum: a count plus a small fixed set, so cutting a
// batch costs no map.
type ackSet struct {
	n     int
	peers [ackInline]types.ReplicaID
	more  []types.ReplicaID // peers beyond ackInline (quorums above 8)
}

// add records peer unless it is already recorded or the quorum is met;
// it reports whether the ack counted.
func (a *ackSet) add(peer types.ReplicaID, quorum int) bool {
	if a.n >= quorum {
		return false
	}
	if slices.Contains(a.peers[:min(a.n, ackInline)], peer) || slices.Contains(a.more, peer) {
		return false
	}
	if a.n < ackInline {
		a.peers[a.n] = peer
	} else {
		a.more = append(a.more, peer)
	}
	a.n++
	return true
}

// batch is one body the store holds, kept by value in the body map so
// that holding a batch costs no allocation of its own: the announce that
// carried the body (for an own batch, the very message broadcast; for a
// fetched one, a wrapper), the transport-level sender it came from,
// whether it is in the proposal pool, and, for an own batch, its acks.
type batch struct {
	ann    *types.BatchAnnounce
	origin types.ReplicaID
	own    bool
	pooled bool
	acks   ackSet
}

func (b *batch) size() int { return b.ann.Body.Size() }

// finalMark is a finalized-digest index entry: the round of the first
// finalized block that referenced the digest, and the round it was
// delivered in (0 until then).
type finalMark struct {
	round, delivered types.Round
}

// refPos names ref i of the payload finalized at round.
type refPos struct {
	round types.Round
	i     int
}

// Store is a replica's view of the dissemination layer: payload
// assembly, availability gating and the bodies delivery hands out. Only
// the consensus engine's goroutine calls it, so it has no lock; HeldBytes
// alone is safe to read from any goroutine.
type Store struct {
	cfg Config
	// foreignCap bounds the pooled bytes of each other origin: the
	// 2×BlockBytes inventory TakeAnnounces keeps, plus one batch.
	foreignCap int

	batches map[[32]byte]batch
	held    atomic.Int64 // total size of the bodies in batches
	// pool holds the proposable batches in receipt order, which is cut
	// order for the own ones and, on FIFO links, for every origin's.
	// Entries a finalized block referenced are dropped lazily (dead).
	pool      []*types.BatchAnnounce
	dead      int
	ownBytes  int // pooled own bytes: the cut inventory
	ownPooled int
	foreign   map[types.ReplicaID]int // pooled bytes per other origin

	final     map[[32]byte]finalMark
	skip      map[refPos]struct{} // refs delivery skips
	delivered types.Round         // highest round delivered

	// Scratch reused across calls: the announces TakeAnnounces returns,
	// and the batches Propose picks.
	announce []*types.BatchAnnounce
	pick     []batch

	cut         int64 // batches cut from the source
	acks        int64 // availability acks recorded
	announced   int64 // bodies handed out for broadcast
	refused     int64 // announces over their origin's cap
	foreignRefs int64 // refs proposed from other origins
	skipBytes   int64 // bytes of the refs delivery skipped
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
	return &Store{
		cfg:        cfg,
		foreignCap: 2*cfg.BlockBytes + cfg.BatchBytes,
		batches:    make(map[[32]byte]batch),
		foreign:    make(map[types.ReplicaID]int),
		final:      make(map[[32]byte]finalMark),
	}
}

// TakeAnnounces cuts new batches from the source until the replica's
// unfinalized own inventory covers the next proposal with cushion, pools
// them, and returns the announce messages to broadcast. The engine drains
// this after every event, which makes dissemination continuous without
// its own timer: bodies start traveling the moment transactions arrive,
// long before any proposal names them. The returned slice is valid until
// the next call.
func (s *Store) TakeAnnounces() []*types.BatchAnnounce {
	clear(s.announce)
	s.announce = s.announce[:0]
	if s.cfg.Source != nil {
		// One block of acked inventory plus one block in the ack pipeline.
		for target := 2 * s.cfg.BlockBytes; s.ownBytes < target; {
			body := s.cfg.Source.CutBatch(s.cfg.BatchBytes)
			size := body.Size()
			if size == 0 {
				break
			}
			digest := body.Digest()
			s.cut++
			if _, held := s.batches[digest]; held {
				continue // the same bytes are pooled or finalized already
			}
			if _, fin := s.final[digest]; fin {
				continue
			}
			ann := &types.BatchAnnounce{Origin: s.cfg.Self, Digest: digest, Body: body}
			s.addPool(batch{ann: ann, origin: s.cfg.Self, own: true})
			s.announce = append(s.announce, ann)
		}
	}
	s.announced += int64(len(s.announce))
	return s.announce
}

// Accept ingests a body announce from origin, the transport-level sender
// (the announce's own Origin field is forgeable; the caller has verified
// the body against its digest), and reports whether the store holds the
// body now, the condition for acking it. A digest the finalized index
// knows is stored and served but not pooled; any other new body joins
// the pool unless its origin's pooled bytes would pass the cap, in which
// case it is refused: neither stored nor acked. The store keeps m.
func (s *Store) Accept(origin types.ReplicaID, m *types.BatchAnnounce) bool {
	if _, held := s.batches[m.Digest]; held {
		return true
	}
	b := batch{ann: m, origin: origin}
	if _, fin := s.final[m.Digest]; fin {
		s.hold(b)
		return true
	}
	if s.foreign[origin]+b.size() > s.foreignCap {
		s.refused++
		return false
	}
	s.addPool(b)
	return true
}

// Put stores a fetched batch body (the caller has verified
// body.Digest() == digest). A fetched body is never pooled: only the
// refs of finalized blocks are fetched. Reports whether the body was new.
func (s *Store) Put(digest [32]byte, body types.Payload) bool {
	if _, ok := s.batches[digest]; ok {
		return false
	}
	s.hold(batch{ann: &types.BatchAnnounce{Digest: digest, Body: body}, origin: types.NoReplica})
	return true
}

// hold stores b, a body the store does not hold yet.
func (s *Store) hold(b batch) {
	s.batches[b.ann.Digest] = b
	s.held.Add(int64(b.size()))
}

// addPool stores b, a body the store does not hold yet, and makes it
// proposable.
func (s *Store) addPool(b batch) {
	b.pooled = true
	s.hold(b)
	s.pool = append(s.pool, b.ann)
	if b.own {
		s.ownBytes += b.size()
		s.ownPooled++
	} else {
		s.foreign[b.origin] += b.size()
	}
}

// unpool takes the held batch b out of the proposal pool, compacting the
// pool once half of it is dead.
func (s *Store) unpool(b batch) {
	b.pooled = false
	s.batches[b.ann.Digest] = b
	if b.own {
		s.ownBytes -= b.size()
		s.ownPooled--
	} else {
		s.foreign[b.origin] -= b.size()
	}
	if s.dead++; 2*s.dead > len(s.pool) {
		live := s.pool[:0]
		for _, ann := range s.pool {
			if _, ok := s.live(ann); ok {
				live = append(live, ann)
			}
		}
		clear(s.pool[len(live):])
		s.pool, s.dead = live, 0
	}
}

// live returns the batch of a pool entry, and whether the entry is live:
// its batch still held, as the same announce, and proposable. An entry
// whose batch was compacted and later pooled again from a new announce is
// dead.
func (s *Store) live(ann *types.BatchAnnounce) (batch, bool) {
	b := s.batches[ann.Digest]
	return b, b.ann == ann && b.pooled
}

// Get returns a stored batch body.
func (s *Store) Get(digest [32]byte) (types.Payload, bool) {
	if b, ok := s.batches[digest]; ok {
		return b.ann.Body, true
	}
	return types.Payload{}, false
}

// Has reports whether the store holds a body.
func (s *Store) Has(digest [32]byte) bool {
	_, ok := s.batches[digest]
	return ok
}

// RecordAck notes that peer holds one of this replica's own batches.
func (s *Store) RecordAck(digest [32]byte, peer types.ReplicaID) {
	if peer == s.cfg.Self {
		return
	}
	if b, ok := s.batches[digest]; ok && b.own && b.pooled && b.acks.add(peer, s.cfg.AckQuorum) {
		s.batches[digest] = b
		s.acks++
	}
}

// Propose assembles a proposal: the pool's batches in receipt order, up
// to the block byte budget, skipping every batch chain references — the
// refs of the blocks between the proposal's parent and the local
// finalized tip. An own batch waits for its ack quorum, and so do the own
// batches cut after it (cut order is part of the committed sequence);
// another origin's batch is proposable as soon as its body is held. An
// empty payload is a valid proposal, so availability never stalls the
// vote path.
func (s *Store) Propose(chain []types.BatchRef) types.Payload {
	used := 0
	pick := s.pick[:0]
	ownBlocked := false
	for _, ann := range s.pool {
		b, ok := s.live(ann)
		if !ok || b.own && ownBlocked || referenced(chain, ann.Digest) {
			continue
		}
		if b.own && b.acks.n < s.cfg.AckQuorum {
			ownBlocked = true
			continue
		}
		size := b.size()
		if used+size > s.cfg.BlockBytes && used > 0 {
			break
		}
		pick = append(pick, b)
		if used += size; used >= s.cfg.BlockBytes {
			break
		}
	}
	if len(pick) == 0 {
		return types.Payload{}
	}
	refs := make([]types.BatchRef, len(pick))
	for i, b := range pick {
		refs[i] = types.BatchRef{Digest: b.ann.Digest, Size: uint32(b.size())}
		if !b.own {
			s.foreignRefs++
		}
	}
	clear(pick)
	s.pick = pick[:0]
	return types.BatchPayload(refs, nil)
}

// referenced reports whether chain holds a ref to digest.
func referenced(chain []types.BatchRef, digest [32]byte) bool {
	for i := range chain {
		if chain[i].Digest == digest {
			return true
		}
	}
	return false
}

// MarkFinalized records that p, the payload of the block finalized at
// round r, is on the finalized chain; the engine calls it in chain order.
// Its batches leave the pool. A ref is marked for delivery to skip when
// an earlier ref of p, or an earlier finalized block within indexWindow
// rounds, already referenced the digest; otherwise the index records r
// as the digest's first finalized round. Marking the same block twice
// changes nothing.
func (s *Store) MarkFinalized(p types.Payload, r types.Round) {
	if len(p.Batches) == 0 {
		return
	}
	for i, ref := range p.Batches {
		if b, ok := s.batches[ref.Digest]; ok && b.pooled {
			s.unpool(b)
		}
		m, known := s.final[ref.Digest]
		if referenced(p.Batches[:i], ref.Digest) || known && m.round < r && m.round+indexWindow >= r {
			if s.skip == nil {
				s.skip = make(map[refPos]struct{})
			}
			s.skip[refPos{r, i}] = struct{}{}
			continue
		}
		if !known || m.round+indexWindow < r {
			s.final[ref.Digest] = finalMark{round: r}
		}
	}
}

// skipped reports whether delivery skips ref i of the payload finalized
// at round r.
func (s *Store) skipped(r types.Round, i int) bool {
	if len(s.skip) == 0 {
		return false
	}
	_, ok := s.skip[refPos{r, i}]
	return ok
}

// Missing returns the digests of the refs of p, the payload finalized at
// round r, whose bodies the store does not hold and delivery does not
// skip — the fetch-on-miss work list for delivery gating. A nil result
// means the payload is deliverable now.
func (s *Store) Missing(p types.Payload, r types.Round) [][32]byte {
	var missing [][32]byte
	for i, ref := range p.Batches {
		if _, ok := s.batches[ref.Digest]; !ok && !s.skipped(r, i) {
			missing = append(missing, ref.Digest)
		}
	}
	return missing
}

// Bodies returns the bodies of the refs of p, the payload finalized at
// round r, as delivery hands them out: in ref order, without the refs
// delivery skips or whose body the store lacks (none, once Missing is
// empty). Each points into the announce that carried it, so it outlives
// the body's compaction and costs no copy. Delivery calls it once per
// block, and it counts the bytes of the refs it skips.
func (s *Store) Bodies(p types.Payload, r types.Round) []*types.Payload {
	bodies := make([]*types.Payload, 0, len(p.Batches))
	for i, ref := range p.Batches {
		if s.skipped(r, i) {
			s.skipBytes += int64(ref.Size)
		} else if b, ok := s.batches[ref.Digest]; ok {
			bodies = append(bodies, &b.ann.Body)
		}
	}
	return bodies
}

// MarkDelivered records that p, the payload finalized at round r, was
// delivered (or dropped as stale) in round r, making its bodies eligible
// for compaction once the retention window moves past r.
func (s *Store) MarkDelivered(p types.Payload, r types.Round) {
	for i, ref := range p.Batches {
		if s.skipped(r, i) {
			continue
		}
		m := s.final[ref.Digest]
		if m.round == 0 {
			m.round = r
		}
		m.delivered = r
		s.final[ref.Digest] = m
	}
	s.delivered = max(s.delivered, r)
}

// Compact drops the bodies of batches delivered before floor, mirroring
// the engine's block-tree pruning: within the retention window bodies
// stay serveable (BatchRequest, restart refetch); behind it they are gone
// along with the blocks that referenced them. Pooled bodies and finalized
// ones still waiting for delivery are kept; a body that is neither pooled
// nor finalized goes. The finalized-digest index forgets digests more
// than indexWindow rounds below the highest delivered round.
func (s *Store) Compact(floor types.Round) {
	for digest, b := range s.batches {
		if b.pooled {
			continue
		}
		if m, ok := s.final[digest]; !ok || m.delivered != 0 && m.delivered < floor {
			s.held.Add(-int64(b.size()))
			delete(s.batches, digest)
		}
	}
	for digest, m := range s.final {
		if m.round+indexWindow < s.delivered {
			delete(s.final, digest)
		}
	}
	for pos := range s.skip {
		if pos.round < floor && pos.round <= s.delivered {
			delete(s.skip, pos)
		}
	}
}

// HeldBytes returns the total size of batch bodies currently held —
// the live footprint of the dissemination plane. It reads a running
// total, so a scrape may call it from any goroutine.
func (s *Store) HeldBytes() int64 { return s.held.Load() }

// Metrics reports the store's counters into m under dissem-prefixed keys.
func (s *Store) Metrics(m map[string]int64) {
	m["dissemBatchesCut"] = s.cut
	m["dissemAcks"] = s.acks
	m["dissemAnnounced"] = s.announced
	m["dissemBodiesHeld"] = int64(len(s.batches))
	m["dissemOwnPending"] = int64(s.ownPooled)
	m["dissemForeignRefs"] = s.foreignRefs
	m["dissemRefused"] = s.refused
	m["dissemSkippedBytes"] = s.skipBytes
	held := 0
	for _, n := range s.foreign {
		held = max(held, n)
	}
	m["dissemForeignHeldMax"] = int64(held)
}
