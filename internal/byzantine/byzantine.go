// Package byzantine provides adversarial replicas for fault-injection
// tests: engines that follow the protocol just enough to be dangerous and
// deviate where it hurts — the behaviours the Banyan paper's model allows
// a corrupted replica (an "f" replica) to exhibit.
//
// The adversaries wrap a real engine for protocol state tracking and
// rewrite its outgoing actions, so they stay in sync with the cluster
// while attacking. They are test infrastructure, not part of the protocol
// surface; integration tests assert that honest replicas preserve safety
// and liveness against them.
package byzantine

import (
	"time"

	"banyan/internal/crypto"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// adversary is what every adversary here shares: it runs the wrapped
// engine faithfully — ID and Metrics are the engine's — names itself after
// it with suffix appended, and passes every action batch the engine
// returns through hook, the adversary's own rewrite.
type adversary struct {
	protocol.Engine
	suffix string
	hook   func(acts []protocol.Action, now time.Time) []protocol.Action
}

var _ protocol.Engine = (*adversary)(nil)

// Protocol implements protocol.Engine.
func (a *adversary) Protocol() string { return a.Engine.Protocol() + a.suffix }

// Start implements protocol.Engine.
func (a *adversary) Start(now time.Time) []protocol.Action {
	return a.hook(a.Engine.Start(now), now)
}

// HandleMessage implements protocol.Engine.
func (a *adversary) HandleMessage(from types.ReplicaID, msg types.Message, now time.Time) []protocol.Action {
	return a.hook(a.Engine.HandleMessage(from, msg, now), now)
}

// HandleTimer implements protocol.Engine.
func (a *adversary) HandleTimer(id protocol.TimerID, now time.Time) []protocol.Action {
	return a.hook(a.Engine.HandleTimer(id, now), now)
}

// EquivocatingLeader runs the wrapped engine faithfully except when it
// proposes: each proposal is split into two conflicting blocks — the
// original to one half of the cluster, a forged twin (same parent, other
// payload) to the other half — with matching equivocated fast votes. This
// is the "Byzantine leader proposes conflicting blocks" scenario of the
// paper's Remark 7.3 and Lemma 8.1.
type EquivocatingLeader struct {
	adversary
	signer *crypto.Signer
	n      int
}

// NewEquivocatingLeader wraps an engine (the adversary's own replica) with
// its signer; n is the cluster size.
func NewEquivocatingLeader(inner protocol.Engine, signer *crypto.Signer, n int) *EquivocatingLeader {
	e := &EquivocatingLeader{signer: signer, n: n}
	e.adversary = adversary{inner, "-equivocator", e.rewrite}
	return e
}

// rewrite splits own-proposal broadcasts into conflicting per-recipient
// sends and passes everything else through.
func (e *EquivocatingLeader) rewrite(acts []protocol.Action, _ time.Time) []protocol.Action {
	out := make([]protocol.Action, 0, len(acts))
	for _, a := range acts {
		bc, ok := a.(protocol.Broadcast)
		if !ok {
			out = append(out, a)
			continue
		}
		prop, ok := bc.Msg.(*types.Proposal)
		if !ok || prop.Relayed || prop.Block == nil || prop.Block.Proposer != e.ID() {
			out = append(out, a)
			continue
		}
		out = append(out, e.split(prop)...)
	}
	return out
}

func (e *EquivocatingLeader) split(prop *types.Proposal) []protocol.Action {
	b := prop.Block
	// Forge the twin: identical header except the payload.
	twinPayload := types.SyntheticPayload(b.Payload.Size()+1, uint64(b.Round)^0xEC0EC0)
	twin := types.NewBlock(b.Round, b.Proposer, b.Rank, b.Parent, twinPayload)
	if err := e.signer.SignBlock(twin); err != nil {
		// Cannot forge (should not happen); fall back to honest behaviour.
		return []protocol.Action{protocol.Broadcast{Msg: prop}}
	}
	twinProp := &types.Proposal{
		Block:              twin,
		ParentNotarization: prop.ParentNotarization,
		ParentUnlock:       prop.ParentUnlock,
	}
	if prop.FastVote != nil {
		fv := e.signer.SignVote(types.VoteFast, twin.Round, twin.ID())
		twinProp.FastVote = &fv
	}
	// Equivocated votes for the twin, so each half believes its block has
	// the leader's support.
	twinVotes := &types.VoteMsg{Votes: []types.Vote{
		e.signer.SignVote(types.VoteNotarize, twin.Round, twin.ID()),
	}}

	var acts []protocol.Action
	for i := 0; i < e.n; i++ {
		id := types.ReplicaID(i)
		if id == e.ID() {
			continue
		}
		if i%2 == 0 {
			acts = append(acts, protocol.Send{To: id, Msg: prop})
		} else {
			acts = append(acts,
				protocol.Send{To: id, Msg: twinProp},
				protocol.Send{To: id, Msg: twinVotes},
			)
		}
	}
	return acts
}

// StaleParentLeader attacks the parent-extension rule: whenever it
// leads, it re-targets its rank-0 proposal at the *grandparent* — a
// finalized-but-superseded extension point — and re-signs its
// credentials for the forged block. Honest replicas must refuse to vote
// for it (a rank-0 block must extend the previous round's tip), costing
// the adversary its round but never safety.
type StaleParentLeader struct {
	adversary
	signer *crypto.Signer
	seen   map[types.BlockID]*types.Block // every block observed, for ancestry lookups
	forged map[types.BlockID]*types.Block // original block ID → stale-parent forgery
}

// NewStaleParentLeader wraps an engine (the adversary's own replica)
// with its signer.
func NewStaleParentLeader(inner protocol.Engine, signer *crypto.Signer) *StaleParentLeader {
	s := &StaleParentLeader{
		signer: signer,
		seen:   make(map[types.BlockID]*types.Block),
		forged: make(map[types.BlockID]*types.Block),
	}
	s.adversary = adversary{inner, "-stale-parent", s.rewrite}
	return s
}

// ForgedIDs returns the stale-parent blocks broadcast so far. Tests use
// it to assert none ever commits.
func (s *StaleParentLeader) ForgedIDs() []types.BlockID {
	out := make([]types.BlockID, 0, len(s.forged))
	for _, b := range s.forged {
		out = append(out, b.ID())
	}
	return out
}

// HandleMessage implements protocol.Engine.
func (s *StaleParentLeader) HandleMessage(from types.ReplicaID, msg types.Message, now time.Time) []protocol.Action {
	if p, ok := msg.(*types.Proposal); ok && p.Block != nil {
		s.seen[p.Block.ID()] = p.Block
	}
	return s.adversary.HandleMessage(from, msg, now)
}

func (s *StaleParentLeader) rewrite(acts []protocol.Action, _ time.Time) []protocol.Action {
	out := make([]protocol.Action, 0, len(acts))
	for _, a := range acts {
		bc, ok := a.(protocol.Broadcast)
		if !ok {
			out = append(out, a)
			continue
		}
		switch m := bc.Msg.(type) {
		case *types.Proposal:
			if m.Block != nil {
				s.seen[m.Block.ID()] = m.Block
			}
			if m.Relayed || m.Block == nil || m.Block.Proposer != s.ID() || m.Block.Rank != 0 {
				out = append(out, a)
				continue
			}
			out = append(out, s.retarget(m))
		case *types.VoteMsg:
			out = append(out, protocol.Broadcast{Msg: s.resign(m)})
		default:
			out = append(out, a)
		}
	}
	return out
}

// retarget rebuilds an own rank-0 proposal on the grandparent. If the
// parent's ancestry is unknown (round 1, or the parent arrived bare and
// was pruned) the proposal passes through honestly.
func (s *StaleParentLeader) retarget(prop *types.Proposal) protocol.Action {
	b := prop.Block
	parent, ok := s.seen[b.Parent]
	if !ok || parent.Round < 1 {
		return protocol.Broadcast{Msg: prop}
	}
	forged, done := s.forged[b.ID()]
	if !done {
		forged = types.NewBlock(b.Round, b.Proposer, 0, parent.Parent, b.Payload)
		if err := s.signer.SignBlock(forged); err != nil {
			return protocol.Broadcast{Msg: prop}
		}
		s.forged[b.ID()] = forged
	}
	fp := &types.Proposal{
		Block:              forged,
		ParentNotarization: prop.ParentNotarization,
		ParentUnlock:       prop.ParentUnlock,
	}
	if prop.FastVote != nil {
		fv := s.signer.SignVote(types.VoteFast, forged.Round, forged.ID())
		fp.FastVote = &fv
	}
	return protocol.Broadcast{Msg: fp}
}

// resign redirects own votes for a retargeted block to the forgery, so
// the stale proposal arrives with the proposer's fast vote attached —
// honest replicas must reject it on the extension rule alone, not
// because its credentials are missing.
func (s *StaleParentLeader) resign(vm *types.VoteMsg) *types.VoteMsg {
	changed := false
	votes := make([]types.Vote, len(vm.Votes))
	for i, v := range vm.Votes {
		if forged, ok := s.forged[v.Block]; ok && v.Voter == s.ID() {
			votes[i] = s.signer.SignVote(v.Kind, v.Round, forged.ID())
			changed = true
		} else {
			votes[i] = v
		}
	}
	if !changed {
		return vm
	}
	return &types.VoteMsg{Votes: votes}
}

// BatchWithholder attacks the dissemination layer's availability
// assumption: it runs consensus faithfully but serves its batch bodies to
// only a chosen subset of peers — just enough acks to get its batches
// referenced from its proposals — and refuses every fetch (BatchRequest)
// afterwards. Replicas outside the subset see digests they cannot resolve
// locally and an origin that never answers. Honest clusters must be
// unaffected on the vote path (headers commit digests; voting never waits
// for bodies) and recover delivery through fetch-on-miss rotation: the
// origin costs one timeout, then the request lands on an acked holder.
type BatchWithholder struct {
	adversary
	serve map[types.ReplicaID]bool

	withheld int64 // announce copies suppressed
	refused  int64 // fetch responses dropped
}

// NewBatchWithholder wraps an engine; serve lists the peers that still
// receive its batch bodies (size it to the ack quorum: the minimum that
// keeps the adversary's batches proposable).
func NewBatchWithholder(inner protocol.Engine, serve []types.ReplicaID) *BatchWithholder {
	m := make(map[types.ReplicaID]bool, len(serve))
	for _, id := range serve {
		m[id] = true
	}
	w := &BatchWithholder{serve: m}
	w.adversary = adversary{inner, "-batch-withholder", w.rewrite}
	return w
}

// Withheld returns how many body announce copies were suppressed.
func (w *BatchWithholder) Withheld() int64 { return w.withheld }

// Refused returns how many fetch responses were dropped.
func (w *BatchWithholder) Refused() int64 { return w.refused }

// rewrite narrows own body broadcasts to the served subset and swallows
// fetch responses; acks for other replicas' batches and every consensus
// message pass through untouched.
func (w *BatchWithholder) rewrite(acts []protocol.Action, _ time.Time) []protocol.Action {
	out := make([]protocol.Action, 0, len(acts))
	for _, a := range acts {
		switch act := a.(type) {
		case protocol.Broadcast:
			ann, ok := act.Msg.(*types.BatchAnnounce)
			if !ok || ann.IsAck() {
				out = append(out, a)
				continue
			}
			for id := range w.serve {
				if id == w.ID() {
					continue
				}
				out = append(out, protocol.Send{To: id, Msg: ann})
			}
			w.withheld++
		case protocol.Send:
			if _, ok := act.Msg.(*types.BatchResponse); ok {
				w.refused++
				continue
			}
			out = append(out, a)
		default:
			out = append(out, a)
		}
	}
	return out
}

// BatchFlooder attacks the dissemination layer's memory and block space:
// it runs consensus faithfully and, with every event it handles,
// broadcasts burst fresh junk batch bodies from a bottomless supply.
// Proposals take any origin's held batches, so without a bound one such
// origin would fill every honest store and every honest block; the
// per-origin cap holds what each replica keeps of it, unfinalized, to
// 2×BlockBytes + BatchBytes and refuses the rest unacked.
type BatchFlooder struct {
	adversary
	size, burst int
	flooded     int64 // junk bodies broadcast
}

// FloodSeedMark is set in the seed of every synthetic body a BatchFlooder
// broadcasts, so tests can tell its batches from honest ones.
const FloodSeedMark = uint64(1) << 63

// NewBatchFlooder wraps an engine to broadcast burst synthetic bodies of
// size bytes with every event.
func NewBatchFlooder(inner protocol.Engine, size, burst int) *BatchFlooder {
	f := &BatchFlooder{size: size, burst: burst}
	f.adversary = adversary{inner, "-batch-flooder", f.flood}
	return f
}

// Flooded returns how many junk bodies were broadcast.
func (f *BatchFlooder) Flooded() int64 { return f.flooded }

func (f *BatchFlooder) flood(acts []protocol.Action, _ time.Time) []protocol.Action {
	for i := 0; i < f.burst; i++ {
		f.flooded++
		body := types.SyntheticPayload(f.size, FloodSeedMark|uint64(f.ID())<<32|uint64(f.flooded))
		acts = append(acts, protocol.Broadcast{Msg: &types.BatchAnnounce{
			Origin: f.ID(), Digest: body.Digest(), Body: body,
		}})
	}
	return acts
}

// PullWithholder attacks the pull path behind header relays: it runs
// consensus faithfully — proposes, votes, relays headers, so every peer
// counts it among the holders of each block it voted for — but never
// answers a BlockRequest. A replica the proposer's copy missed, and whose
// first pull lands on the withholder, sees silence; it must route around
// it by rotating to the next known holder, at the cost of one timeout.
type PullWithholder struct {
	adversary
	refused int64 // pull replies dropped
}

// NewPullWithholder wraps an engine to drop every pull reply it produces.
func NewPullWithholder(inner protocol.Engine) *PullWithholder {
	w := &PullWithholder{}
	w.adversary = adversary{inner, "-pull-withholder", w.rewrite}
	return w
}

// Refused returns how many pull replies were dropped.
func (w *PullWithholder) Refused() int64 { return w.refused }

// rewrite swallows pull replies — unicast body-form relays — and passes
// everything else, header relays included, through untouched.
func (w *PullWithholder) rewrite(acts []protocol.Action, _ time.Time) []protocol.Action {
	out := acts[:0]
	for _, a := range acts {
		if s, ok := a.(protocol.Send); ok {
			if p, ok := s.Msg.(*types.Proposal); ok && p.Relayed && p.Block != nil {
				w.refused++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// SettledFlooder attacks one victim's ingress with traffic for rounds the
// cluster has already finalized. It runs consensus faithfully, and every
// time its own engine commits it sprays the victim with a burst aimed a
// few rounds behind its finalized tip: a late vote of every kind from
// every replica, a notarization and a fast-finalization certificate, and
// an Advance carrying a notarization and an unlock proof — all naming
// the block that really finalized, all well-formed, all with garbage
// signatures that differ from burst to burst, so no structural check can
// dismiss them. An honest victim must spend no signature
// verification on any of it: the rounds are settled there, and settled
// traffic is dropped before a verifier is consulted.
type SettledFlooder struct {
	adversary
	victim types.ReplicaID
	n      int

	finalized map[types.Round]types.BlockID // recent commits, by round
	nonce     uint64
	items     int64
}

// floodLag is how far behind its own finalized tip the flooder aims: far
// enough that a victim in step with the cluster has finalized and left
// the target round before the burst lands.
const floodLag = 2

// NewSettledFlooder wraps the adversary's own engine; n is the cluster
// size and victim the replica the flood is unicast to.
func NewSettledFlooder(inner protocol.Engine, victim types.ReplicaID, n int) *SettledFlooder {
	f := &SettledFlooder{victim: victim, n: n, finalized: make(map[types.Round]types.BlockID)}
	f.adversary = adversary{inner, "-settled-flooder", f.flood}
	return f
}

// Items returns how many votes, certificates and unlock proofs have been
// sprayed — the unit a victim's settled_dropped counter counts in.
func (f *SettledFlooder) Items() int64 { return f.items }

// BurstItems is the number of items in one burst.
func (f *SettledFlooder) BurstItems() int64 { return int64(3*f.n + 4) }

// flood passes the inner engine's actions through and appends one burst
// per committed block whose round is floodLag behind a known commit.
func (f *SettledFlooder) flood(acts []protocol.Action, _ time.Time) []protocol.Action {
	var bursts []protocol.Action
	for _, a := range acts {
		c, ok := a.(protocol.Commit)
		if !ok {
			continue
		}
		for _, b := range c.Blocks {
			f.finalized[b.Round] = b.ID()
			if b.Round <= floodLag {
				continue
			}
			target := b.Round - floodLag
			if id, ok := f.finalized[target]; ok {
				bursts = append(bursts, f.burst(target, id)...)
				delete(f.finalized, target)
			}
		}
	}
	return append(acts, bursts...)
}

// garbage returns 64 bytes no key ever signed, different on every call.
func (f *SettledFlooder) garbage() []byte {
	f.nonce++
	sig := make([]byte, 64)
	for i := range sig {
		sig[i] = byte(f.nonce >> (8 * (uint(i) % 8)))
	}
	sig[63] = 0xa5
	return sig
}

func (f *SettledFlooder) burst(round types.Round, id types.BlockID) []protocol.Action {
	everyone := make([]types.ReplicaID, f.n)
	for i := range everyone {
		everyone[i] = types.ReplicaID(i)
	}
	sigs := func() [][]byte {
		out := make([][]byte, f.n)
		for i := range out {
			out[i] = f.garbage()
		}
		return out
	}
	var votes []types.Vote
	for _, kind := range []types.VoteKind{types.VoteNotarize, types.VoteFast, types.VoteFinalize} {
		for _, voter := range everyone {
			votes = append(votes, types.Vote{Kind: kind, Round: round, Block: id, Voter: voter, Signature: f.garbage()})
		}
	}
	cert := func(kind types.CertKind) *types.Certificate {
		return &types.Certificate{Kind: kind, Round: round, Block: id, Signers: everyone, Sigs: sigs()}
	}
	proof := &types.UnlockProof{Round: round, Block: id, Entries: []types.UnlockEntry{{
		Header: types.BlockHeader{Round: round}, Voters: everyone, Sigs: sigs(),
	}}}
	f.items += f.BurstItems()
	to := func(msg types.Message) protocol.Action { return protocol.Send{To: f.victim, Msg: msg} }
	return []protocol.Action{
		to(&types.VoteMsg{Votes: votes}),
		to(&types.CertMsg{Cert: cert(types.CertNotarization)}),
		to(&types.CertMsg{Cert: cert(types.CertFastFinalization)}),
		to(&types.Advance{Notarization: cert(types.CertNotarization), Unlock: proof}),
	}
}

// Silent is a crash-like adversary: it participates normally until
// SilenceAfter, then emits nothing (but keeps consuming messages, unlike a
// crash — a "mute" fault).
type Silent struct {
	adversary
	// SilenceAfter is the time from which the replica stops emitting.
	SilenceAfter time.Time
}

// NewSilent wraps an engine to go mute at the given time.
func NewSilent(inner protocol.Engine, after time.Time) *Silent {
	s := &Silent{SilenceAfter: after}
	s.adversary = adversary{inner, "-mute", s.filter}
	return s
}

func (s *Silent) filter(acts []protocol.Action, now time.Time) []protocol.Action {
	if now.Before(s.SilenceAfter) {
		return acts
	}
	// Keep timers (internal), drop all network output.
	out := acts[:0]
	for _, a := range acts {
		switch a.(type) {
		case protocol.Broadcast, protocol.Send:
			// dropped
		default:
			out = append(out, a)
		}
	}
	return out
}

// VoteWithholder participates normally but never sends fast or
// finalization votes — the "unresponsive" replica of the fast-path model:
// with more than p of these, FP-finalization must never fire while the
// slow path still commits. Its notarization votes still go out: where the
// wrapped engine casts one as a fast vote (the first vote of a round is
// one signature for both), the withholder signs the bare notarization
// vote in its place.
type VoteWithholder struct {
	adversary
	signer *crypto.Signer
}

// NewVoteWithholder wraps an engine to suppress its fast and finalization
// votes; signer is the adversary's own key.
func NewVoteWithholder(inner protocol.Engine, signer *crypto.Signer) *VoteWithholder {
	w := &VoteWithholder{signer: signer}
	w.adversary = adversary{inner, "-withholder", w.strip}
	return w
}

func (w *VoteWithholder) strip(acts []protocol.Action, _ time.Time) []protocol.Action {
	out := make([]protocol.Action, 0, len(acts))
	for _, a := range acts {
		bc, ok := a.(protocol.Broadcast)
		if !ok {
			out = append(out, a)
			continue
		}
		vm, ok := bc.Msg.(*types.VoteMsg)
		if !ok {
			// Strip fast votes riding on proposals and header relays too.
			// The copy is rebuilt field by field rather than by struct
			// assignment so it cannot inherit the original's memoized wire
			// encoding (which would still contain the fast vote being
			// stripped); a field left out here is missing from the copy.
			if p, isProp := bc.Msg.(*types.Proposal); isProp && p.FastVote != nil {
				cp := &types.Proposal{
					Block:              p.Block,
					Header:             p.Header,
					ParentNotarization: p.ParentNotarization,
					ParentUnlock:       p.ParentUnlock,
					Relayed:            p.Relayed,
				}
				out = append(out, protocol.Broadcast{Msg: cp})
				continue
			}
			out = append(out, a)
			continue
		}
		var kept []types.Vote
		for _, v := range vm.Votes {
			switch v.Kind {
			case types.VoteNotarize:
				kept = append(kept, v)
			case types.VoteFast:
				kept = append(kept, w.signer.SignVote(types.VoteNotarize, v.Round, v.Block))
			}
		}
		if len(kept) > 0 {
			out = append(out, protocol.Broadcast{Msg: &types.VoteMsg{Votes: kept}})
		}
	}
	return out
}

// SplitVoter is a Byzantine voter aimed at the one-signature vote rule —
// a fast vote counts as its voter's notarization vote for the same block —
// producing every shape of vote the rule has to be safe against. In each
// round it fast-votes the first block it hears of, body or header relay,
// valid or not, with no notarization vote beside it; it sends a bare
// notarization vote for every other block of the round it hears of, so
// the twins of an equivocating leader get a fast vote and a notarization
// vote between them; and it claims N ⊆ {first} with a finalization vote
// regardless. The wrapped engine runs faithfully for everything else
// (proposals, relays, certificates, Advance); its own votes are
// replaced by these.
type SplitVoter struct {
	adversary
	signer *crypto.Signer

	first  map[types.Round]types.BlockID // block fast-voted per round
	voted  map[types.BlockID]bool        // blocks voted for, either way
	splits int64
}

// NewSplitVoter wraps the adversary's own engine with its signer.
func NewSplitVoter(inner protocol.Engine, signer *crypto.Signer) *SplitVoter {
	s := &SplitVoter{
		signer: signer,
		first:  make(map[types.Round]types.BlockID),
		voted:  make(map[types.BlockID]bool),
	}
	s.adversary = adversary{inner, "-split-voter", s.strip}
	return s
}

// FastVotes counts the rounds the adversary fast-voted in.
func (s *SplitVoter) FastVotes() int64 { return int64(len(s.first)) }

// Splits counts the bare notarization votes sent for a block other than
// the one fast-voted in the same round.
func (s *SplitVoter) Splits() int64 { return s.splits }

// HandleMessage implements protocol.Engine.
func (s *SplitVoter) HandleMessage(from types.ReplicaID, msg types.Message, now time.Time) []protocol.Action {
	acts := s.adversary.HandleMessage(from, msg, now)
	if p, ok := msg.(*types.Proposal); ok {
		acts = s.vote(p, acts)
	}
	return acts
}

// strip drops the wrapped engine's own vote messages.
func (s *SplitVoter) strip(acts []protocol.Action, _ time.Time) []protocol.Action {
	out := acts[:0]
	for _, a := range acts {
		if bc, ok := a.(protocol.Broadcast); ok {
			if _, isVote := bc.Msg.(*types.VoteMsg); isVote {
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// vote casts the adversary's votes for the block a proposal names.
func (s *SplitVoter) vote(p *types.Proposal, acts []protocol.Action) []protocol.Action {
	var (
		round types.Round
		id    types.BlockID
	)
	switch {
	case p.Block != nil:
		round, id = p.Block.Round, p.Block.ID()
	case p.Header != nil:
		round, id = p.Header.Round, p.Header.ID()
	default:
		return acts
	}
	if s.voted[id] {
		return acts
	}
	s.voted[id] = true
	var votes []types.Vote
	if _, spent := s.first[round]; !spent {
		s.first[round] = id
		votes = []types.Vote{
			s.signer.SignVote(types.VoteFast, round, id),
			s.signer.SignVote(types.VoteFinalize, round, id),
		}
	} else {
		s.splits++
		votes = []types.Vote{s.signer.SignVote(types.VoteNotarize, round, id)}
	}
	return append(acts, protocol.Broadcast{Msg: &types.VoteMsg{Votes: votes}})
}

// EpochStraddler models a removed validator that refuses to accept its
// eviction. It runs the wrapped engine faithfully until it observes a
// finalized ConfigChange removing itself; from the change's activation
// round on it keeps broadcasting notarization and fast votes — signed
// with the key it still legitimately holds in the global registry — for
// every proposal it receives. The signatures verify; what must stop them
// is membership: honest replicas discard votes from non-members of the
// voting round's epoch, and epoch-pinned certificate verification
// (crypto.VerifyCertIn) rejects any certificate counting them. Tests
// assert both, plus that the cluster keeps finalizing without the
// straddler's weight.
type EpochStraddler struct {
	adversary
	signer *crypto.Signer

	activation types.Round // first round self is no longer a member; 0 = still one
	forged     int64
}

// NewEpochStraddler wraps the adversary's own engine with its signer.
func NewEpochStraddler(inner protocol.Engine, signer *crypto.Signer) *EpochStraddler {
	e := &EpochStraddler{signer: signer}
	e.adversary = adversary{inner, "-epoch-straddler", e.observe}
	return e
}

// HandleMessage implements protocol.Engine: faithful processing, plus —
// once removed — a forged vote pair for every proposal at or past the
// activation round.
func (e *EpochStraddler) HandleMessage(from types.ReplicaID, msg types.Message, now time.Time) []protocol.Action {
	acts := e.adversary.HandleMessage(from, msg, now)
	prop, ok := msg.(*types.Proposal)
	if !ok || prop.Block == nil || e.activation == 0 || prop.Block.Round < e.activation {
		return acts
	}
	b := prop.Block
	votes := &types.VoteMsg{Votes: []types.Vote{
		e.signer.SignVote(types.VoteNotarize, b.Round, b.ID()),
		e.signer.SignVote(types.VoteFast, b.Round, b.ID()),
	}}
	e.forged += 2
	return append(acts, protocol.Broadcast{Msg: votes})
}

// observe watches the inner engine's commits for the finalized
// ConfigChange that evicts self and records its activation round.
func (e *EpochStraddler) observe(acts []protocol.Action, _ time.Time) []protocol.Action {
	if e.activation > 0 {
		return acts
	}
	for _, a := range acts {
		c, ok := a.(protocol.Commit)
		if !ok {
			continue
		}
		for _, b := range c.Blocks {
			ch := b.Payload.Change
			if ch != nil && ch.Op == types.ConfigRemove && ch.Replica == e.ID() {
				e.activation = b.Round + 1
			}
		}
	}
	return acts
}

// ForgedVotes counts the stale-epoch votes broadcast after removal.
func (e *EpochStraddler) ForgedVotes() int64 { return e.forged }

// RemovedAt returns the activation round of the eviction the straddler
// observed (0 until then).
func (e *EpochStraddler) RemovedAt() types.Round { return e.activation }
