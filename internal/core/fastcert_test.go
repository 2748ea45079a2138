package core

import (
	"reflect"
	"testing"
	"time"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// A fast-finalization certificate is its round's notarization and unlock
// credential (absorbFast): a replica that holds one leaves the round
// through it with no Advance, and its next proposal ships it as the
// parent notarization with no unlock proof.

// checkLeftThroughFastCert asserts that r left round 1 through the fast
// certificate cert: no Advance and no unlock proof, no notarization
// certificate of round 1 other than cert, and a round-2 proposal that
// carries cert and nothing else as its parent credentials. It returns the
// proposal.
func checkLeftThroughFastCert(t *testing.T, r *rig, cert *types.Certificate) *types.Proposal {
	t.Helper()
	if r.eng.Round() != 2 {
		t.Fatalf("round %d, want 2", r.eng.Round())
	}
	if advs := broadcasts[*types.Advance](r); len(advs) != 0 {
		t.Errorf("%d Advances broadcast for a round left through its fast certificate", len(advs))
	}
	m := r.eng.Metrics()
	if m["advances"] != 0 || m["advances_skipped"] != 1 {
		t.Errorf("advances=%d advances_skipped=%d, want 0 and 1", m["advances"], m["advances_skipped"])
	}
	rs := r.eng.rounds[1]
	if rs.advanceNotar != cert || rs.advanceProof != nil {
		t.Errorf("left round 1 with %v and unlock proof %v, want the fast certificate alone", rs.advanceNotar, rs.advanceProof)
	}
	for id, rec := range rs.byID {
		if rec.notarization != nil && rec.notarization != cert {
			t.Errorf("block %s keeps a second notarization certificate %v", id, rec.notarization)
		}
	}
	props := ownRound2Proposals(r)
	if len(props) != 1 {
		t.Fatalf("%d round-2 proposals, want 1", len(props))
	}
	if p := props[0]; p.ParentNotarization != cert || p.ParentUnlock != nil {
		t.Fatalf("round-2 proposal carries %v and %v, want the fast certificate and no unlock proof",
			p.ParentNotarization, p.ParentUnlock)
	}
	return props[0]
}

// TestLeaderLeavesThroughItsFastCertificate (n=4): the leader of round 2
// forms round 1's fast certificate from the leader's fast vote, its own
// and one peer's. It broadcasts the certificate, leaves the round with no
// Advance and no unlock proof, and proposes at once on the certificate
// alone. A replica holding no vote of round 1 — not even its block —
// validates that proposal from the certificate, and votes for it once the
// round-1 body lands.
func TestLeaderLeavesThroughItsFastCertificate(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(2, 0)
	r := newRig(t, p411, self)
	b1 := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b1.Proposer, r.proposalFor(b1))
	voter := peersOf(r, b1.Proposer)[0]
	r.deliver(voter, fastVoteMsg(r, voter, b1))

	certs := broadcasts[*types.CertMsg](r)
	if len(certs) != 1 || certs[0].Cert.Kind != types.CertFastFinalization {
		t.Fatalf("certificates broadcast %v, want one fast finalization", certs)
	}
	cert := certs[0].Cert
	if r.eng.Metrics()["final_fast"] != 1 {
		t.Fatal("round 1 did not fast-finalize here")
	}
	p2 := checkLeftThroughFastCert(t, r, cert)

	// A receiver that holds nothing of round 1.
	other := peersOf(r, b1.Proposer, voter)[0]
	recv := newRig(t, p411, other)
	recv.deliver(self, p2)
	rs1, rs2 := recv.eng.rounds[1], recv.eng.rounds[2]
	if !rs2.peek(p2.Block.ID()).valid {
		t.Fatal("the round-2 proposal did not validate on its fast-certificate parent")
	}
	if rs1.notarization(b1.ID()) != cert || !rs1.isUnlocked(b1.ID()) || ledgerSizes(rs1) != 2 {
		t.Fatalf("round 1 at the receiver: notarization %v, unlocked %v, %d entries; want the certificate alone",
			rs1.notarization(b1.ID()), rs1.isUnlocked(b1.ID()), ledgerSizes(rs1))
	}
	if recv.eng.Metrics()["rejected"] != 0 {
		t.Fatal("the receiver rejected part of the proposal")
	}
	// The body of round 1, without its proposer's vote: the receiver
	// commits it on the certificate, enters round 2 and votes.
	recv.clearActs()
	recv.deliver(b1.Proposer, &types.Proposal{Block: b1})
	if recv.eng.Round() != 2 || recv.eng.Tree().FinalizedRound() != 1 {
		t.Fatalf("receiver in round %d, finalized %d", recv.eng.Round(), recv.eng.Tree().FinalizedRound())
	}
	if got := voteKinds(recv); len(got) != 1 || got[0] != types.VoteFast {
		t.Fatalf("receiver's votes %v, want one fast vote for the round-2 block", got)
	}
	if v := broadcasts[*types.VoteMsg](recv)[0].Votes[0]; v.Round != 2 || v.Block != p2.Block.ID() {
		t.Fatalf("receiver voted %v", v)
	}
}

// TestFastCertMsgAloneLeavesTheRound (n=4): the leader of round 2, fed
// round 1's proposal and a peer's fast CertMsg and no other vote, takes
// the certificate as the round's notarization and unlock. It leaves
// through it with no Advance, does not re-broadcast it, and proposes on
// it.
func TestFastCertMsgAloneLeavesTheRound(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(2, 0)
	r := newRig(t, p411, self)
	b1 := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b1.Proposer, r.proposalFor(b1))
	if r.eng.Round() != 1 {
		t.Fatal("left round 1 on the proposal alone")
	}
	others := peersOf(r, b1.Proposer)
	msg := r.fastFinalCert(b1, b1.Proposer, others[0], others[1])
	r.deliver(others[0], msg)
	checkLeftThroughFastCert(t, r, msg.Cert)
	if n := len(broadcasts[*types.CertMsg](r)); n != 0 {
		t.Errorf("a received certificate was broadcast again %d times", n)
	}
	m := r.eng.Metrics()
	if m["final_indirect"] != 1 || m["final_fast"] != 0 || m["rejected"] != 0 {
		t.Errorf("final_indirect=%d final_fast=%d rejected=%d, want 1, 0, 0",
			m["final_indirect"], m["final_fast"], m["rejected"])
	}
}

// TestRoundLeftOnNotarizationStillSendsAdvance (n=7): the notarization
// quorum (5) is below the fast quorum (6), so a replica leaves on the
// notarization before the round can fast-finalize. All five signers are
// fast-marked, more than f+p = 3, so the notarization unlocks itself: the
// Advance carries it and no unlock proof, a finalization vote goes out,
// and the next proposal carries the notarization alone. A fresh peer that
// receives only the Advance holds the block notarized and unlocked, and
// validates that proposal without a ParentUnlock. The fast certificate
// formed later finalizes the round, which keeps the notarization it was
// left with, and sends no second Advance.
func TestRoundLeftOnNotarizationStillSendsAdvance(t *testing.T) {
	params := types.Params{N: 7, F: 2, P: 1}
	set := genesisSet(t, params)
	self := set.ReplicaAt(2, 0)
	r := newRig(t, params, self)
	b1 := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b1.Proposer, r.proposalFor(b1))
	peers := peersOf(r, b1.Proposer)
	need := params.NotarizationQuorum() - 2 // the leader's vote and this replica's are in
	for _, p := range peers[:need] {
		r.deliver(p, fastVoteMsg(r, p, b1))
	}
	if r.eng.Round() != 2 {
		t.Fatalf("round %d after a notarization quorum, want 2", r.eng.Round())
	}
	advs := broadcasts[*types.Advance](r)
	if len(advs) != 1 || advs[0].Notarization == nil || advs[0].Unlock != nil {
		t.Fatalf("Advances %+v, want one with a notarization and no unlock proof", advs)
	}
	adv := advs[0]
	if adv.Notarization.Kind != types.CertNotarization {
		t.Fatalf("Advance carries a %s certificate", adv.Notarization.Kind)
	}
	if !unlocksItself(adv.Notarization, genesisSet(t, params)) {
		t.Fatal("the Advance's notarization does not unlock itself")
	}
	if finalizeVotesSent(r) != 1 {
		t.Fatalf("%d finalization votes sent, want 1", finalizeVotesSent(r))
	}
	props := ownRound2Proposals(r)
	if len(props) != 1 || props[0].ParentNotarization != adv.Notarization || props[0].ParentUnlock != nil {
		t.Fatalf("round-2 proposal does not carry the Advance's notarization alone: %+v", props)
	}
	m := r.eng.Metrics()
	if m["advances"] != 1 || m["advances_skipped"] != 0 || m["final_fast"] != 0 {
		t.Fatalf("advances=%d advances_skipped=%d final_fast=%d, want 1, 0, 0",
			m["advances"], m["advances_skipped"], m["final_fast"])
	}

	// A peer that holds nothing of round 1 learns the unlock from the
	// Advance alone, with the notarization's fast votes.
	fresh := newRig(t, params, peers[need+1])
	fresh.deliver(self, adv)
	frs1 := fresh.eng.rounds[1]
	if frs1.notarization(b1.ID()) != adv.Notarization || !frs1.isUnlocked(b1.ID()) {
		t.Fatalf("fresh peer: notarization %v, unlocked %v", frs1.notarization(b1.ID()), frs1.isUnlocked(b1.ID()))
	}
	if got := frs1.set(types.VoteFast, b1.ID()).count(); got != params.NotarizationQuorum() {
		t.Fatalf("fresh peer holds %d fast votes from the notarization, want %d", got, params.NotarizationQuorum())
	}
	fresh.deliver(self, props[0])
	if !fresh.eng.rounds[2].peek(props[0].Block.ID()).valid || fresh.eng.Metrics()["rejected"] != 0 {
		t.Fatal("fresh peer did not validate the round-2 proposal on the notarization alone")
	}

	// The sixth fast vote FP-finalizes the round already left.
	r.clearActs()
	p := peers[need]
	r.deliver(p, fastVoteMsg(r, p, b1))
	certs := broadcasts[*types.CertMsg](r)
	if len(certs) != 1 || certs[0].Cert.Kind != types.CertFastFinalization {
		t.Fatalf("certificates broadcast %v, want the fast finalization", certs)
	}
	rs := r.eng.rounds[1]
	if r.eng.Tree().FinalizedRound() != 1 || rs.notarization(b1.ID()) != adv.Notarization ||
		rs.advanceNotar != adv.Notarization || rs.advanceProof != nil {
		t.Fatal("the late fast certificate did not finalize the round, or moved the credentials it was left with")
	}
	if n := len(broadcasts[*types.Advance](r)); n != 0 || r.eng.Metrics()["advances"] != 1 {
		t.Fatalf("%d further Advances after the fast certificate", n)
	}
}

// TestReplayedFastRoundKeepsItsCredentials: a replica restarted after a
// fast round — its journal holds the proposal and the peer's vote, and its
// own relay, vote and fast CertMsg, and no Advance — replays to the
// credentials it left the round with before the crash, and proposes the
// next round on them.
func TestReplayedFastRoundKeepsItsCredentials(t *testing.T) {
	set := genesisSet(t, p411)
	self := set.ReplicaAt(2, 0)
	r := newRig(t, p411, self)
	b1 := r.leaderBlock(1, types.Genesis().ID(), 1)
	voter := peersOf(r, b1.Proposer)[0]

	// The journal up to the crash, in arrival order: each inbound record,
	// then what this replica sent in answer — all but its round-2
	// proposal, lost with the process.
	type record struct {
		from types.ReplicaID
		msg  types.Message
		own  bool
	}
	var journal []record
	for _, in := range []record{{from: b1.Proposer, msg: r.proposalFor(b1)}, {from: voter, msg: fastVoteMsg(r, voter, b1)}} {
		r.clearActs()
		r.deliver(in.from, in.msg)
		journal = append(journal, in)
		for _, m := range ownBroadcasts(r) {
			switch m := m.(type) {
			case *types.Advance:
				t.Fatal("an Advance was sent")
			case *types.Proposal:
				if m.Block != nil && m.Block.Round == 2 {
					continue
				}
			}
			journal = append(journal, record{msg: m, own: true})
		}
	}
	if r.eng.Round() != 2 || r.eng.Metrics()["advances_skipped"] != 1 {
		t.Fatal("first life did not leave round 1 through its fast certificate")
	}
	before := r.eng.rounds[1]

	now := time.Unix(10, 0)
	eng := replayRig(t, r)
	eng.BeginReplay()
	eng.Start(now)
	for _, rec := range journal {
		if rec.own {
			eng.ReplayOwn(rec.msg, now)
		} else {
			eng.HandleMessage(rec.from, rec.msg, now)
		}
	}
	if eng.Round() != 2 {
		t.Fatalf("replayed to round %d, want 2", eng.Round())
	}
	after := eng.rounds[1]
	if !reflect.DeepEqual(after.advanceNotar, before.advanceNotar) || after.advanceProof != nil ||
		after.advanceBlock != before.advanceBlock {
		t.Fatalf("replayed credentials %v / %v, want %v and no unlock proof",
			after.advanceNotar, after.advanceProof, before.advanceNotar)
	}
	var props []*types.Proposal
	for _, a := range eng.EndReplay(now) {
		if b, ok := a.(protocol.Broadcast); ok {
			if p, ok := b.Msg.(*types.Proposal); ok && !p.Relayed {
				props = append(props, p)
			}
		}
	}
	if len(props) != 1 || props[0].Block.Round != 2 || props[0].Block.Parent != b1.ID() {
		t.Fatalf("after replay proposed %v, want one round-2 block on %s", props, b1.ID())
	}
	if !reflect.DeepEqual(props[0].ParentNotarization, before.advanceNotar) || props[0].ParentUnlock != nil {
		t.Fatalf("replayed proposal carries %v and %v, want the fast certificate alone",
			props[0].ParentNotarization, props[0].ParentUnlock)
	}
}
