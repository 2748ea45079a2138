package core

import (
	"bytes"
	"sort"
	"time"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Header relays and body pulls. Algorithm 1 line 35 has every replica
// that votes for a block re-broadcast it; here the re-broadcast carries
// the block's signed header and the credentials a receiver needs to
// validate it, never the payload — a body crosses each link once,
// proposer to replica. A replica that hears of a block it does not hold
// (a header relay, or a vote naming its ID) waits Δ — the point at which
// an honest proposer's direct copy is overdue — and then pulls the body:
// one unicast BlockRequest to the peer it heard of the block from,
// rotating through the other peers known to hold it and then the ring on
// silence, answered with the body-form Proposal{Relayed: true} as a
// unicast. The honest, loss-free path never pulls; an equivocating or
// lossy leader costs the replicas it starved one Δ + RTT.

// Bounds on the peer-fed pull state.
const (
	// maxWantedPerSource caps the bodiless blocks of one round charged to
	// one signer — the proposer whose signature a header carries, or the
	// voter whose vote first named an ID. A proposer has one rank per
	// round, so more distinct headers than this is equivocation evidence,
	// not something to chase: the first few are kept, the rest dropped.
	maxWantedPerSource = 4
	// maxWanted caps the bodiless blocks tracked across all rounds, and
	// with it the pending pulls.
	maxWanted = 64
	// maxServedPerPeer caps the bodies served to one peer per round, so a
	// 41-byte request cannot be replayed into unbounded block-sized
	// replies.
	maxServedPerPeer = 4
)

// pullKey names a block body to pull.
type pullKey struct {
	round types.Round
	id    types.BlockID
}

// wantedBody is a block this replica has heard of but holds no body for.
type wantedBody struct {
	// source is the signer the entry is charged to (maxWantedPerSource).
	source types.ReplicaID
	// holders are the peers known to hold the body, in the order heard:
	// header relayers and voters (a replica never votes for a body it
	// does not hold).
	holders []types.ReplicaID
	// sig is the proposer signature of the first header that verified for
	// the block, nil while only votes named it: a later copy of the header
	// or the body carrying the same signature needs no second check
	// (headerChecked).
	sig     []byte
	heardAt time.Time
	// queued marks that the pull was handed to the fetcher (Δ elapsed).
	queued bool
}

// want records that the round-r block id exists and holder has its body.
// source is the signer whose verified signature says so: the proposer of
// a relayed header, whose signature sig is, or the voter, with sig nil.
// It reports false when the entry was refused: the round is already
// finalized, or a bound is hit.
func (e *Engine) want(r types.Round, id types.BlockID, source, holder types.ReplicaID, sig []byte) bool {
	if r <= e.tree.FinalizedRound() || holder == e.cfg.Self {
		return false
	}
	key := pullKey{round: r, id: id}
	if w, ok := e.wanted[key]; ok {
		if w.sig == nil {
			w.sig = sig
		}
		for _, h := range w.holders {
			if h == holder {
				return true
			}
		}
		w.holders = append(w.holders, holder)
		if w.queued {
			e.pulls.Add(key, holder)
		}
		return true
	}
	charged := 0
	for k, w := range e.wanted {
		if k.round == r && w.source == source {
			charged++
		}
	}
	if len(e.wanted) >= maxWanted || charged >= maxWantedPerSource {
		e.met.rejected++
		return false
	}
	e.wanted[key] = &wantedBody{
		source:  source,
		holders: []types.ReplicaID{holder},
		sig:     sig,
		heardAt: e.now,
	}
	return true
}

// headerChecked reports whether the proposer signature sig over the
// round-r block id was verified already: the wanted entry's header
// carried the very same bytes. The ID covers the header and, for a body,
// its payload hash, so only the signature check is saved.
func (e *Engine) headerChecked(r types.Round, id types.BlockID, sig []byte) bool {
	w := e.wanted[pullKey{round: r, id: id}]
	return w != nil && w.sig != nil && bytes.Equal(w.sig, sig)
}

// bodyArrived forgets the wanted entry of a block whose body just landed
// (the proposer's copy, or a pull reply) and cancels its pull.
func (e *Engine) bodyArrived(r types.Round, id types.BlockID) {
	key := pullKey{round: r, id: id}
	if _, ok := e.wanted[key]; ok {
		delete(e.wanted, key)
		e.pulls.Done(key)
	}
}

// maybePull runs at the tail of every live progress pass: it drops
// entries of finalized rounds, hands overdue ones to the fetcher, starts
// or rotates the BlockRequests in flight, and keeps one TimerBodyPull
// armed for the next moment any of that can change. A body that lands
// within Δ never reaches the fetcher.
func (e *Engine) maybePull(now time.Time, acts []protocol.Action) []protocol.Action {
	if len(e.wanted) == 0 {
		return acts
	}
	fin := e.tree.FinalizedRound()
	var (
		wake time.Time // earliest moment a still-waiting entry falls due
		due  []pullKey
	)
	for key, w := range e.wanted {
		switch at := w.heardAt.Add(e.cfg.Delta); {
		case key.round <= fin:
			// The round finalized without this block, or with it in hand.
			delete(e.wanted, key)
			e.pulls.Done(key)
		case w.queued:
		case !now.Before(at):
			due = append(due, key)
		case wake.IsZero() || at.Before(wake):
			wake = at
		}
	}
	// Queue in (round, ID) order, not map order: same-seed simulations
	// must replay the same requests.
	if len(due) > 1 {
		sort.Slice(due, func(i, j int) bool {
			if due[i].round != due[j].round {
				return due[i].round < due[j].round
			}
			return due[i].id.Compare(due[j].id) < 0
		})
	}
	for _, key := range due {
		w := e.wanted[key]
		w.queued = true
		for _, h := range w.holders {
			e.pulls.Add(key, h)
		}
	}
	acts = e.pulls.step(now, acts)
	if d := e.pulls.Deadline(); wake.IsZero() || !d.IsZero() && d.Before(wake) {
		wake = d
	}
	return e.pulls.arm(wake, acts)
}

// pullExhausted reports whether every holder and the whole ring stayed
// silent on a pull whose deadline passed: nobody this replica can reach
// has the body. The block is forgotten; hearing of it again (a resend's
// header relay) starts over.
func (e *Engine) pullExhausted(key pullKey) bool {
	if e.pulls.Sent(key) < e.setFor(key.round).Size() {
		return false
	}
	delete(e.wanted, key)
	return true
}

// onBlockRequest serves a block body to a peer pulling it. Stateless for
// the requester like sync and batch requests — not journaled, silent when
// the block is not held (the requester's rotation finds another holder) —
// but rate-bounded per peer and round. The reply is the body-form relay:
// the block plus the credentials that let the requester validate and
// vote for it.
func (e *Engine) onBlockRequest(from types.ReplicaID, m *types.BlockRequest) []protocol.Action {
	rs, ok := e.rounds[m.Round]
	if !ok {
		e.met.bodyPullsRefused++
		return nil
	}
	b := rs.block(m.ID)
	if b == nil || int(from) < len(rs.served) && rs.served[from] >= maxServedPerPeer {
		e.met.bodyPullsRefused++
		return nil
	}
	if int(from) >= len(rs.served) {
		// HandleMessage bounds from by the identity registry.
		rs.served = append(rs.served, make([]uint8, int(from)+1-len(rs.served))...)
	}
	rs.served[from]++
	e.met.bodyPullsServed++
	p := &types.Proposal{Block: b, Relayed: true}
	e.relayCreds(b, p)
	return []protocol.Action{protocol.Send{To: from, Msg: p}}
}
