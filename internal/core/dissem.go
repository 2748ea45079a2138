package core

import (
	"slices"

	"banyan/internal/obs"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Batch dissemination (Config.Dissem). Consensus is untouched: replicas
// vote on headers the moment they validate, and finalization forms from
// votes exactly as in inline mode. What the store adds is a second,
// asynchronous plane — batch bodies broadcast continuously off the
// consensus path — and a delivery gate: a finalized chain's Commit action
// is withheld until every batch body its payloads reference is held
// locally, fetched on miss from the block's proposer (a proposer holds
// every batch it references, whoever cut it) with timeout rotation across
// peers, up to fetch.Window digests at a time. Safety never depends on
// the gate; it only orders the application's view. A proposal takes any
// origin's held batches that its parent chain does not reference
// (nextPayload); a newly finalized chain is marked in the store before it
// queues (deliver), which takes its batches out of the pool and marks the
// refs an earlier finalized block already delivered, for delivery to
// skip.

// onBatchAnnounce ingests a body broadcast or an availability ack. A
// body-carrying announce is self-certifying (digest check) and answered
// with an ack — an announce with the same digest and no body — so the
// origin can count availability before referencing the batch. A body the
// store refuses (its origin is over its cap) is not acked.
func (e *Engine) onBatchAnnounce(from types.ReplicaID, m *types.BatchAnnounce) []protocol.Action {
	if e.cfg.Dissem == nil {
		e.met.rejected++
		return nil
	}
	if m.IsAck() {
		// The sender holds one of our batches. Count the transport-level
		// sender, not the forgeable Origin field.
		e.cfg.Dissem.RecordAck(m.Digest, from)
		return nil
	}
	if m.Body.Digest() != m.Digest {
		e.met.rejected++
		return nil
	}
	if !e.cfg.Dissem.Accept(from, m) {
		return nil
	}
	e.recordFetchDone(m.Digest)
	e.batchFetch.Done(m.Digest)
	return []protocol.Action{protocol.Send{
		To:  from,
		Msg: &types.BatchAnnounce{Origin: e.cfg.Self, Digest: m.Digest},
	}}
}

// onBatchRequest serves a stored batch body to a peer fetching on miss.
// Stateless, like sync/snapshot requests: not journaled, served straight
// from the store, silent when the body is unknown or already compacted
// (the requester's rotation finds another holder).
func (e *Engine) onBatchRequest(from types.ReplicaID, m *types.BatchRequest) []protocol.Action {
	if e.cfg.Dissem == nil {
		return nil
	}
	body, ok := e.cfg.Dissem.Get(m.Digest)
	if !ok {
		return nil
	}
	e.met.batchServed++
	return []protocol.Action{protocol.Send{
		To:  from,
		Msg: &types.BatchResponse{Digest: m.Digest, Body: body},
	}}
}

// onBatchResponse ingests a fetched body. Self-certifying like the
// announce path, so a malicious peer cannot inject a wrong body — at
// worst it wastes its timeout slot in the rotation.
func (e *Engine) onBatchResponse(m *types.BatchResponse) {
	if e.cfg.Dissem == nil {
		e.met.rejected++
		return
	}
	if m.Body.Digest() != m.Digest {
		e.met.rejected++
		return
	}
	e.cfg.Dissem.Put(m.Digest, m.Body)
	e.recordFetchDone(m.Digest)
	e.batchFetch.Done(m.Digest)
}

// recordFetchDone records the duration of a completing batch fetch —
// Begin to body arrival, across peer rotations — when the arriving
// digest is in flight. Called before Fetcher.Done clears the in-flight
// state.
func (e *Engine) recordFetchDone(digest [32]byte) {
	o := e.cfg.Obs
	if o == nil || e.replaying {
		return
	}
	start, ok := e.batchFetch.Started(digest)
	if !ok {
		return
	}
	d := e.now.Sub(start)
	o.DissemFetch.Record(d)
	o.Tracer.Span(0, types.BlockID(digest), obs.SpanDissemFetch, start, d)
}

// tryDisseminate drains freshly cut batches into broadcasts. Running at
// the tail of every progress pass makes dissemination continuous without
// a timer of its own: bodies start traveling as soon as the source has
// transactions, long before any proposal names them. Suppressed during
// replay — cutting from the source there would consume live transactions
// into announces that keepReplayActions drops.
func (e *Engine) tryDisseminate(acts []protocol.Action) []protocol.Action {
	if e.replaying || e.stopped {
		return acts
	}
	for _, a := range e.cfg.Dissem.TakeAnnounces() {
		acts = append(acts, protocol.Broadcast{Msg: a})
	}
	return acts
}

// deliver routes a newly finalized chain to the application. Inline mode
// commits immediately; dissemination mode marks the chain finalized in
// the store, enqueues it behind any earlier gated deliveries (application
// order must match finalization order) and flushes whatever prefix has
// its bodies.
func (e *Engine) deliver(chain []*types.Block, mode protocol.FinalizationMode,
	acts []protocol.Action) []protocol.Action {
	if e.cfg.Dissem == nil {
		o := e.cfg.Obs
		for _, b := range chain {
			e.met.blocksCommit++
			e.met.bytesCommit += int64(b.Payload.Size())
			if o != nil && !e.replaying {
				o.Tracer.Mark(b.Round, b.ID(), obs.StageDelivered, e.now)
			}
		}
		return append(acts, protocol.Commit{Blocks: chain, Explicit: mode})
	}
	for _, b := range chain {
		e.cfg.Dissem.MarkFinalized(b.Payload, b.Round)
	}
	e.delivQueue = append(e.delivQueue, deliveryItem{blocks: chain, mode: mode, enq: e.now})
	return e.flushDelivery(acts)
}

// flushDelivery emits Commit actions for the longest prefix of the
// delivery queue whose batch bodies are all held, and queues fetches for
// the digests every gated block lacks, so consecutive losses recover in
// parallel within the fetch window rather than one head at a time. A
// partially deliverable chain commits its resolvable prefix as
// FinalizeIndirect (the original mode describes the chain's tip, which is
// still gated); commit metrics count here, at delivery, so
// blocks_commit/bytes_commit mean what the application saw. Each Commit
// carries the bodies its blocks' refs resolved to, so a Compact after it,
// even in the same step, cannot empty it.
func (e *Engine) flushDelivery(acts []protocol.Action) []protocol.Action {
	defer e.fetchGated()
	for len(e.delivQueue) > 0 {
		it := &e.delivQueue[0]
		n := 0
		for _, b := range it.blocks {
			if len(e.cfg.Dissem.Missing(b.Payload, b.Round)) > 0 {
				break
			}
			n++
		}
		if n > 0 {
			blocks := it.blocks[:n:n]
			var bodies [][]*types.Payload
			o := e.cfg.Obs
			for i, b := range blocks {
				e.met.blocksCommit++
				e.met.bytesCommit += int64(b.Payload.Size())
				if len(b.Payload.Batches) > 0 {
					if bodies == nil {
						bodies = make([][]*types.Payload, n)
					}
					bodies[i] = e.cfg.Dissem.Bodies(b.Payload, b.Round)
				}
				e.cfg.Dissem.MarkDelivered(b.Payload, b.Round)
				if o != nil && !e.replaying {
					id := b.ID()
					o.Tracer.Mark(b.Round, id, obs.StageBodiesResolved, e.now)
					o.Tracer.Mark(b.Round, id, obs.StageDelivered, e.now)
					o.DeliveryWait.Record(e.now.Sub(it.enq))
				}
			}
			mode := it.mode
			if n < len(it.blocks) {
				mode = protocol.FinalizeIndirect
			}
			acts = append(acts, protocol.Commit{Blocks: blocks, Explicit: mode, Bodies: bodies})
			it.blocks = it.blocks[n:]
		}
		if len(it.blocks) > 0 {
			break // head still gated; later items must wait regardless
		}
		e.delivQueue = e.delivQueue[1:]
	}
	return acts
}

// fetchMissing queues a fetch, proposer first, for every body b
// references that the store lacks. Called for every gated delivery, and
// for every block as it arrives (onProposal), so that under loss a body
// whose announce went astray is usually in hand by the time its block
// finalizes. A block that never finalizes leaves its fetched bodies to
// the next Compact, and an unanswered fetch no gated delivery needs is
// abandoned (batchUnneeded).
func (e *Engine) fetchMissing(b *types.Block) {
	for _, d := range e.cfg.Dissem.Missing(b.Payload, b.Round) {
		e.batchFetch.Add(d, b.Proposer)
	}
}

// batchUnneeded is the batch fetcher's abandon hook: a fetch every peer
// has let expire is given up unless a gated delivery lacks the body. A
// prefetch for a block that never finalizes would otherwise hold a window
// slot forever; if the block does finalize, the delivery gate asks again.
func (e *Engine) batchUnneeded(d [32]byte) bool {
	if e.batchFetch.Sent(d) < e.setFor(e.round).Size() {
		return false
	}
	for _, it := range e.delivQueue {
		for _, b := range it.blocks {
			if slices.Contains(e.cfg.Dissem.Missing(b.Payload, b.Round), d) {
				return false
			}
		}
	}
	return true
}

// fetchGated queues the fetches every gated delivery needs.
func (e *Engine) fetchGated() {
	for _, it := range e.delivQueue {
		for _, b := range it.blocks {
			e.fetchMissing(b)
		}
	}
}

// dropStaleDeliveries discards gated delivery-queue blocks the engine has
// pruned past. Behind the retention window a body is no longer guaranteed
// recoverable anywhere — peers compact behind the same floor — and the
// commit-stream contract already tolerates restart gaps (a replica that
// recovered via snapshot adoption never had those blocks either). This is
// what lets a checkpoint-replayed restart rejoin when its pre-crash
// deliveries reference long-compacted batches: catch-up moves the floor
// past them, the stale head is dropped, and live delivery resumes. Blocks
// whose bodies are all held are never dropped, and the fetcher abandons
// the dropped digests so rotation stops burning timeouts on them. The
// bodies a dropped block does hold count as delivered, so they compact.
func (e *Engine) dropStaleDeliveries(floor types.Round) {
	items := e.delivQueue[:0]
	for _, it := range e.delivQueue {
		kept := make([]*types.Block, 0, len(it.blocks))
		for _, b := range it.blocks {
			missing := e.cfg.Dissem.Missing(b.Payload, b.Round)
			if b.Round < floor && len(missing) > 0 {
				e.met.delivDropped++
				e.cfg.Dissem.MarkDelivered(b.Payload, b.Round)
				for _, d := range missing {
					e.batchFetch.Done(d)
				}
				// The emitted Commit now has a gap in front of it.
				it.mode = protocol.FinalizeIndirect
				continue
			}
			kept = append(kept, b)
		}
		it.blocks = kept
		if len(it.blocks) > 0 {
			items = append(items, it)
		}
	}
	e.delivQueue = items
}
