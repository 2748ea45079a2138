package core

import (
	"bytes"
	"testing"
	"time"

	"banyan/internal/dissem"
	"banyan/internal/types"
)

// Any-origin proposals under Config.Dissem: a proposal takes every held
// batch its parent chain does not reference, whoever cut it; a batch
// leaves the pool only when a finalized block references it, and delivery
// skips a ref the finalized chain already delivered.

// newDissemRig builds a rig whose engine runs a dissemination store with
// no source of its own: every batch it proposes is another origin's.
func newDissemRig(t *testing.T, self types.ReplicaID) (*rig, *dissem.Store) {
	t.Helper()
	store := dissem.NewStore(dissem.Config{Self: self, N: p411.N})
	return newRig(t, p411, self, func(c *Config) { c.Dissem = store }), store
}

func batchBody(tag byte) types.Payload { return types.BytesPayload(bytes.Repeat([]byte{tag}, 16)) }

// announce delivers origin's broadcast of a batch body.
func (r *rig) announce(origin types.ReplicaID, body types.Payload) {
	r.t.Helper()
	r.deliver(origin, &types.BatchAnnounce{Origin: origin, Digest: body.Digest(), Body: body})
}

// refBlock builds a signed block of the given rank for the round whose
// payload references the bodies, in order.
func (r *rig) refBlock(round types.Round, rank types.Rank, parent types.BlockID, bodies ...types.Payload) *types.Block {
	r.t.Helper()
	refs := make([]types.BatchRef, len(bodies))
	for i, b := range bodies {
		refs[i] = types.BatchRef{Digest: b.Digest(), Size: uint32(b.Size())}
	}
	proposer := r.set.ReplicaAt(round, rank)
	blk := types.NewBlock(round, proposer, rank, parent, types.BatchPayload(refs, nil))
	if err := r.signers[proposer].SignBlock(blk); err != nil {
		r.t.Fatal(err)
	}
	return blk
}

// othersThan lists every replica but self.
func othersThan(r *rig) []types.ReplicaID {
	var out []types.ReplicaID
	for id := types.ReplicaID(0); int(id) < r.params.N; id++ {
		if id != r.eng.ID() {
			out = append(out, id)
		}
	}
	return out
}

// refDigests lists a payload's ref digests.
func refDigests(p types.Payload) [][32]byte {
	var out [][32]byte
	for _, ref := range p.Batches {
		out = append(out, ref.Digest)
	}
	return out
}

// deliveredBatches lists, in commit order, the digests of the batch
// bodies the rig's commits carry — what the host decodes.
func deliveredBatches(r *rig) [][32]byte {
	var out [][32]byte
	for _, c := range r.commits() {
		for _, bodies := range c.Bodies {
			for _, body := range bodies {
				out = append(out, body.Digest())
			}
		}
	}
	return out
}

// TestLeaderSkipsRefsOfItsParentChain: round 1's leader block references
// x and is notarized but not finalized; leading round 2 on it, the
// replica proposes the other held batch y and not x again.
func TestLeaderSkipsRefsOfItsParentChain(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(2, 0)
	r, _ := newDissemRig(t, self)
	x, y := batchBody('x'), batchBody('y')
	origin := set.ReplicaAt(1, 3)
	r.announce(origin, x)
	r.announce(origin, y)

	// The two other peers notarization-vote b and fast-vote a rank-2
	// block: b is notarized and unlocked (Condition 1) with two fast
	// votes, so it is not fast-finalized.
	b := r.refBlock(1, 0, types.Genesis().ID(), x)
	r.deliver(b.Proposer, r.proposalFor(b))
	d := r.rankedBlock(1, 2, types.Genesis().ID(), 'd')
	r.deliver(d.Proposer, &types.Proposal{Block: d})
	for _, p := range []types.ReplicaID{set.ReplicaAt(1, 2), set.ReplicaAt(1, 3)} {
		r.deliver(p, &types.VoteMsg{Votes: []types.Vote{r.notarVote(p, b), r.fastVote(p, d)}})
	}
	if r.eng.Round() != 2 || r.eng.Tree().FinalizedRound() != 0 {
		t.Fatalf("round %d, finalized %d; want round 2 on a notarized, unfinalized parent",
			r.eng.Round(), r.eng.Tree().FinalizedRound())
	}
	next := ownProposalAt(r, 2)
	if next == nil || next.Parent != b.ID() {
		t.Fatalf("round-2 proposal %v does not extend b", next)
	}
	if got := refDigests(next.Payload); len(got) != 1 || got[0] != y.Digest() {
		t.Fatalf("round-2 proposal references %x, want y alone", got)
	}
	if m := r.eng.Metrics(); m["dissemForeignRefs"] != 1 {
		t.Fatalf("dissemForeignRefs = %d, want 1", m["dissemForeignRefs"])
	}
}

// TestLeaderWithoutParentBodyProposesNoRefs (n=7): the replica never
// receives round 1's leader block b, which references x; it votes for a
// rank-2 block d on timeout and leaves the round on an Advance carrying
// b's notarization. Leading round 2 on b, it cannot tell which refs b's
// chain holds, so its proposal references none: not x again, and not y
// either.
func TestLeaderWithoutParentBodyProposesNoRefs(t *testing.T) {
	set := genesisSet(t, p721)
	self := set.ReplicaAt(2, 0)
	store := dissem.NewStore(dissem.Config{Self: self, N: p721.N})
	r := newRig(t, p721, self, func(c *Config) { c.Dissem = store })
	x, y := batchBody('x'), batchBody('y')
	origin := set.ReplicaAt(1, 3)
	r.announce(origin, x)
	r.announce(origin, y)

	// Four fast-marked signers of five unlock b by themselves (more than
	// f+p = 3) and stay short of a fast finalization.
	b := r.refBlock(1, 0, types.Genesis().ID(), x)
	d := r.rankedBlock(1, 2, types.Genesis().ID(), 'd')
	r.deliver(d.Proposer, &types.Proposal{Block: d})
	r.tick(time.Second)
	peers := othersThan(r)
	r.deliver(peers[0], &types.Advance{Notarization: mixedNotarization(r, b, peers[:4], peers[4:5])})
	if _, held := r.eng.Tree().Block(b.ID()); held || r.eng.Round() != 2 || r.eng.Tree().FinalizedRound() != 0 {
		t.Fatalf("round %d, finalized %d, b held %v; want round 2 on b's notarization alone",
			r.eng.Round(), r.eng.Tree().FinalizedRound(), held)
	}
	next := ownProposalAt(r, 2)
	if next == nil || next.Parent != b.ID() {
		t.Fatalf("round-2 proposal %v does not extend b", next)
	}
	if got := refDigests(next.Payload); len(got) != 0 {
		t.Fatalf("round-2 proposal references %x, want nothing while b's refs are unknown", got)
	}
}

// TestOrphanedOwnBlockLeavesRefsPooled: the replica's rank-1 block
// proposing x loses round 1; nothing is carried, and leading round 2 it
// proposes x again from the pool.
func TestOrphanedOwnBlockLeavesRefsPooled(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(1, 1)
	if set.ReplicaAt(2, 0) != self {
		t.Fatal("setup: the round-1 rank-1 replica should lead round 2")
	}
	r, _ := newDissemRig(t, self)
	x := batchBody('x')
	r.announce(set.ReplicaAt(1, 3), x)

	lost := loseRound(t, r, r.leaderBlock(1, types.Genesis().ID(), 'a'))
	if got := refDigests(lost.Payload); len(got) != 1 || got[0] != x.Digest() {
		t.Fatalf("rank-1 proposal references %x, want x", got)
	}
	if len(r.eng.carry) != 0 || r.eng.Metrics()["payloads_carried"] != 0 {
		t.Fatalf("carry queue holds %d payloads; batch refs are never carried", len(r.eng.carry))
	}
	next := ownProposalAt(r, 2)
	if next == nil {
		t.Fatal("no round-2 proposal")
	}
	if got := refDigests(next.Payload); len(got) != 1 || got[0] != x.Digest() {
		t.Fatalf("round-2 proposal references %x, want the orphaned block's x", got)
	}
}

// TestLateBodyOfFinalizedDigestIsServedNotProposed: round 1 finalizes a
// block referencing x and z before the replica holds either; x arrives
// late by announce, z by fetch. Both are acked or stored, delivered and
// served, and the replica's next proposal names neither.
func TestLateBodyOfFinalizedDigestIsServedNotProposed(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(3, 0)
	r, store := newDissemRig(t, self)
	x, z := batchBody('x'), batchBody('z')
	b1 := r.refBlock(1, 0, types.Genesis().ID(), x, z)
	r.deliver(b1.Proposer, r.proposalFor(b1))
	r.deliver(b1.Proposer, r.fastFinalCert(b1, othersThan(r)...))
	if r.eng.Tree().FinalizedRound() != 1 || len(r.commits()) != 0 {
		t.Fatal("setup: round 1 should be finalized with its delivery gated")
	}
	asked := 0
	for _, s := range sends[*types.BatchRequest](r) {
		if s.To != b1.Proposer {
			t.Fatalf("batch requested from %d, want the proposer %d first", s.To, b1.Proposer)
		}
		asked++
	}
	if asked != 2 {
		t.Fatalf("%d batch requests, want one per missing body", asked)
	}

	r.clearActs()
	origin := set.ReplicaAt(1, 2)
	r.announce(origin, x)
	if acks := sends[*types.BatchAnnounce](r); len(acks) != 1 || acks[0].To != origin {
		t.Fatalf("late announce answered with %v, want one ack to its origin", acks)
	}
	r.deliver(b1.Proposer, &types.BatchResponse{Digest: z.Digest(), Body: z})
	if got := deliveredBatches(r); len(got) != 2 || got[0] != x.Digest() || got[1] != z.Digest() {
		t.Fatalf("delivered %x, want x then z", got)
	}
	delivered := r.commits()
	r.clearActs()
	peer := set.ReplicaAt(1, 3)
	r.deliver(peer, &types.BatchRequest{Digest: x.Digest()})
	if resp := sends[*types.BatchResponse](r); len(resp) != 1 || resp[0].To != peer {
		t.Fatal("late body not served")
	}

	b2 := r.leaderBlock(2, b1.ID(), 'b')
	r.deliver(b2.Proposer, r.proposalFor(b2))
	r.deliver(b2.Proposer, r.fastFinalCert(b2, othersThan(r)...))
	next := ownProposalAt(r, 3)
	if next == nil {
		t.Fatal("no round-3 proposal")
	}
	if next.Payload.HasBatches() {
		t.Fatalf("round-3 proposal references %x; finalized digests are never proposed", refDigests(next.Payload))
	}

	// The round-1 commit carries its bodies: compacting them from the
	// store leaves what it hands the application whole.
	store.Compact(3)
	if store.Has(x.Digest()) || store.Has(z.Digest()) {
		t.Fatal("setup: round 1's bodies survived compaction")
	}
	if len(delivered) != 1 || len(delivered[0].Bodies) != 1 || len(delivered[0].Bodies[0]) != 2 ||
		!bytes.Equal(delivered[0].Bodies[0][0].Data, x.Data) || !bytes.Equal(delivered[0].Bodies[0][1].Data, z.Data) {
		t.Fatalf("round-1 commit after compaction: %+v", delivered)
	}
}

// TestRepeatedRefDeliveredOnce: a hand-signed round-2 block references x
// again, although round 1's finalized block already did. Every replica
// delivers x once — the repeat is skipped, never fetched — and y.
func TestRepeatedRefDeliveredOnce(t *testing.T) {
	set := genesisSet(t, p411)
	x, y := batchBody('x'), batchBody('y')
	var first [][32]byte
	for _, self := range []types.ReplicaID{set.ReplicaAt(1, 2), set.ReplicaAt(1, 3)} {
		r, store := newDissemRig(t, self)
		r.announce(set.ReplicaAt(1, 0), x)
		r.announce(set.ReplicaAt(1, 0), y)
		b1 := r.refBlock(1, 0, types.Genesis().ID(), x)
		b2 := r.refBlock(2, 0, b1.ID(), x, y)
		for _, b := range []*types.Block{b1, b2} {
			r.deliver(b.Proposer, r.proposalFor(b))
			r.deliver(b.Proposer, r.fastFinalCert(b, othersThan(r)...))
		}
		if r.eng.Tree().FinalizedRound() != 2 {
			t.Fatalf("replica %d: finalized through %d, want 2", self, r.eng.Tree().FinalizedRound())
		}
		got := deliveredBatches(r)
		if len(got) != 2 || got[0] != x.Digest() || got[1] != y.Digest() {
			t.Fatalf("replica %d delivered %x, want x once, then y", self, got)
		}
		if missing := store.Missing(b2.Payload, 2); len(missing) != 0 {
			t.Fatalf("replica %d: the skipped repeat gates delivery: %x", self, missing)
		}
		if first == nil {
			first = got
		} else if got[0] != first[0] || got[1] != first[1] {
			t.Fatalf("replicas deliver different batches: %x vs %x", first, got)
		}
	}
}

// TestUnservedPrefetchIsAbandoned: a received block references a body
// nobody serves, and the block never finalizes. The prefetch asks the
// proposer and then the ring, and gives up after as many expired requests
// as the set has members, instead of holding a fetch-window slot forever.
func TestUnservedPrefetchIsAbandoned(t *testing.T) {
	set := genesisSet(t, p411)
	r, _ := newDissemRig(t, set.ReplicaAt(1, 3))
	b := r.refBlock(1, 0, types.Genesis().ID(), batchBody('x'))
	r.deliver(b.Proposer, r.proposalFor(b))
	if reqs := sends[*types.BatchRequest](r); len(reqs) != 1 || reqs[0].To != b.Proposer {
		t.Fatalf("prefetch requests %v, want one to the proposer", reqs)
	}
	for i := 0; i < 10; i++ {
		r.tick(batchFetchDeltas * rigDelta)
	}
	if n := len(sends[*types.BatchRequest](r)); n != r.params.N {
		t.Fatalf("%d requests for an unserved body, want %d (the set size), then none", n, r.params.N)
	}
	if r.eng.batchFetch.Fetching() {
		t.Fatal("abandoned prefetch still in flight")
	}
}
