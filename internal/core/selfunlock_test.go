package core

import (
	"fmt"
	"slices"
	"testing"

	"banyan/internal/crypto"
	"banyan/internal/types"
)

// A notarization with more than f+p fast-marked signers is its own unlock
// proof (unlocksItself): each marked signature is a verified fast vote for
// the block by a distinct member, Definition 7.6 condition 1.

var p721 = types.Params{N: 7, F: 2, P: 1} // f+p = 3, notarization quorum 5

// mixedNotarization builds a notarization certificate for b from the fast
// votes of fast and the bare notarization votes of bare.
func mixedNotarization(r *rig, b *types.Block, fast, bare []types.ReplicaID) *types.Certificate {
	r.t.Helper()
	var votes []types.Vote
	for _, v := range fast {
		votes = append(votes, r.fastVote(v, b))
	}
	for _, v := range bare {
		votes = append(votes, r.notarVote(v, b))
	}
	cert, err := types.NewCertificate(types.CertNotarization, b.Round, b.ID(), votes)
	if err != nil {
		r.t.Fatal(err)
	}
	return cert
}

// fastMarked counts a certificate's fast-marked signers.
func fastMarked(c *types.Certificate) (n int) {
	for i := range c.Signers {
		if c.FastSigned(i) {
			n++
		}
	}
	return n
}

// TestSelfUnlockBoundary (n=7): a replica leaves round 1 on a notarization
// of five signers. With exactly f+p = 3 of them fast-marked it cannot leave
// before a fourth fast vote unlocks the block, and its Advance, its next
// proposal and its relays carry an unlock proof beside the notarization.
// With f+p+1 = 4 fast-marked signers the notarization unlocks the block by
// itself, and none of them carries a proof. A fresh peer handed the
// notarization alone holds the block unlocked in the second case only.
func TestSelfUnlockBoundary(t *testing.T) {
	thr := p721.UnlockThreshold()
	for _, marked := range []int{thr, thr + 1} {
		t.Run(fmt.Sprintf("fast=%d", marked), func(t *testing.T) {
			set := genesisSet(t, p721)
			self := set.ReplicaAt(2, 0)
			r := newRig(t, p721, self)
			b1 := r.leaderBlock(1, types.Genesis().ID(), 1)
			r.deliver(b1.Proposer, r.proposalFor(b1)) // the leader's fast vote and this replica's
			peers := peersOf(r, b1.Proposer)
			fast, bare := peers[:marked-2], peers[marked-2:p721.NotarizationQuorum()-2]
			for _, p := range bare {
				r.deliver(p, &types.VoteMsg{Votes: []types.Vote{r.notarVote(p, b1)}})
			}
			for _, p := range fast {
				r.deliver(p, fastVoteMsg(r, p, b1))
			}
			rs := r.eng.rounds[1]
			notar := rs.notarization(b1.ID())
			if notar == nil || fastMarked(notar) != marked {
				t.Fatalf("notarization %v, want %d fast-marked signers", notar, marked)
			}
			unlocks := marked > thr
			if got := unlocksItself(notar, genesisSet(t, p721)); got != unlocks {
				t.Fatalf("unlocksItself = %v with %d fast-marked signers, f+p = %d", got, marked, thr)
			}
			if !unlocks {
				if r.eng.Round() != 1 {
					t.Fatal("left the round on f+p fast votes")
				}
				extra := peers[len(fast)+len(bare)]
				r.deliver(extra, fastVoteMsg(r, extra, b1))
			}
			if r.eng.Round() != 2 {
				t.Fatalf("round %d, want 2", r.eng.Round())
			}
			advs := broadcasts[*types.Advance](r)
			if len(advs) != 1 || advs[0].Notarization != notar {
				t.Fatalf("Advances %v, want one carrying the notarization", advs)
			}
			proof := advs[0].Unlock
			if (proof == nil) != unlocks {
				t.Fatalf("Advance unlock proof %v with %d fast-marked signers", proof, marked)
			}
			if proof != nil {
				if err := crypto.VerifyUnlockProof(r.keyring, proof, thr); err != nil {
					t.Fatal(err)
				}
			}
			props := ownRound2Proposals(r)
			if len(props) != 1 || props[0].ParentNotarization != notar || props[0].ParentUnlock != proof {
				t.Fatalf("round-2 proposal credentials differ from the Advance's: %+v", props)
			}
			if relay := r.eng.relayProposal(props[0].Block); relay.ParentNotarization != notar || relay.ParentUnlock != proof {
				t.Fatalf("relay of the round-2 block carries %v and %v", relay.ParentNotarization, relay.ParentUnlock)
			}

			fresh := newRig(t, p721, peers[len(peers)-1])
			fresh.deliver(self, &types.CertMsg{Cert: notar})
			frs := fresh.eng.rounds[1]
			if frs.notarization(b1.ID()) != notar || frs.isUnlocked(b1.ID()) != unlocks {
				t.Fatalf("fresh peer: notarization %v, unlocked %v; want unlocked %v",
					frs.notarization(b1.ID()), frs.isUnlocked(b1.ID()), unlocks)
			}
		})
	}
}

// TestSelfUnlockingCertReplacesBareNotarization (n=7): a replica holds a
// notarization of bare signatures — vote withholders' — and two fast votes,
// too few to unlock, so it stays in the round. A second notarization of
// the same block with f+p+1 fast-marked signers is news all the same: it
// unlocks the block, its fast votes join the ledger, it replaces the held
// certificate, and the replica leaves through it with no unlock proof.
// Once held, a further notarization of the block is not even verified.
func TestSelfUnlockingCertReplacesBareNotarization(t *testing.T) {
	set := genesisSet(t, p721)
	r := newRig(t, p721, set.ReplicaAt(1, 5))
	b1 := r.leaderBlock(1, types.Genesis().ID(), 1)
	r.deliver(b1.Proposer, r.proposalFor(b1))
	peers := peersOf(r, b1.Proposer)
	bareCert := mixedNotarization(r, b1, nil, peers)
	r.deliver(peers[0], &types.CertMsg{Cert: bareCert})
	rs := r.eng.rounds[1]
	if rs.notarization(b1.ID()) != bareCert || rs.isUnlocked(b1.ID()) || r.eng.Round() != 1 {
		t.Fatalf("after the bare notarization: held %v, unlocked %v, round %d",
			rs.notarization(b1.ID()), rs.isUnlocked(b1.ID()), r.eng.Round())
	}

	fast := append([]types.ReplicaID{b1.Proposer}, peers[:3]...)
	cert := mixedNotarization(r, b1, fast, peers[3:4])
	r.deliver(peers[1], &types.CertMsg{Cert: cert})
	if rs.notarization(b1.ID()) != cert || !rs.isUnlocked(b1.ID()) {
		t.Fatalf("self-unlocking notarization not taken: held %v, unlocked %v", rs.notarization(b1.ID()), rs.isUnlocked(b1.ID()))
	}
	if got := rs.set(types.VoteFast, b1.ID()).count(); got != len(fast)+1 { // and this replica's own
		t.Fatalf("%d fast votes held, want %d", got, len(fast)+1)
	}
	if r.eng.Round() != 2 {
		t.Fatalf("round %d, want 2", r.eng.Round())
	}
	if advs := broadcasts[*types.Advance](r); len(advs) != 1 || advs[0].Notarization != cert || advs[0].Unlock != nil {
		t.Fatalf("Advances %v, want one carrying the self-unlocking notarization alone", advs)
	}

	// A forged copy would fail verification: not being verified, it is
	// neither rejected nor taken.
	forged := *cert
	forged.Sigs = make([][]byte, len(cert.Sigs))
	r.deliver(peers[2], &types.CertMsg{Cert: &forged})
	if rs.notarization(b1.ID()) != cert || r.eng.Metrics()["rejected"] != 0 {
		t.Fatal("a notarization for a block holding a self-unlocking one was verified")
	}
}

// TestFlippedFastMarkerUnlocksNothing (n=7): a notarization with f+p
// fast-marked signers, one bare signer's marker flipped, claims f+p+1 fast
// votes. The flipped signature covers the notarization digest, not the
// fast-vote one, so the certificate is rejected whether or not the block
// holds a notarization already, and neither unlocks the block nor adds a
// vote.
func TestFlippedFastMarkerUnlocksNothing(t *testing.T) {
	set := genesisSet(t, p721)
	for _, held := range []bool{false, true} {
		t.Run(fmt.Sprintf("held=%v", held), func(t *testing.T) {
			r := newRig(t, p721, set.ReplicaAt(1, 6))
			b1 := r.leaderBlock(1, types.Genesis().ID(), 1)
			peers := peersOf(r)
			genuine := mixedNotarization(r, b1, peers[:3], peers[3:5])
			if unlocksItself(genuine, genesisSet(t, p721)) {
				t.Fatal("f+p fast-marked signers unlock")
			}
			if held {
				r.deliver(peers[0], &types.CertMsg{Cert: genuine})
			}
			forged := *genuine
			forged.Fast = append([]byte(nil), genuine.Fast...)
			i := slices.Index(genuine.Signers, peers[3])
			forged.Fast[i/8] ^= 1 << (i % 8)
			if !unlocksItself(&forged, genesisSet(t, p721)) {
				t.Fatal("the flipped marker claims no unlock")
			}
			rs := r.eng.getRound(1)
			before := ledgerSizes(rs)
			r.deliver(peers[1], &types.CertMsg{Cert: &forged})
			if r.eng.Metrics()["rejected"] != 1 {
				t.Fatal("the flipped marker was not rejected")
			}
			if rs.isUnlocked(b1.ID()) || ledgerSizes(rs) != before {
				t.Fatalf("the rejected certificate changed the round: unlocked %v, %d entries, was %d",
					rs.isUnlocked(b1.ID()), ledgerSizes(rs), before)
			}
			if want := map[bool]*types.Certificate{false: nil, true: genuine}[held]; rs.notarization(b1.ID()) != want {
				t.Fatalf("notarization %v, want %v", rs.notarization(b1.ID()), want)
			}
		})
	}
}

// TestScrubReDerivesSelfUnlock: a round holds a notarization with f+p+1
// fast-marked signers, taken from a peer, for a block whose body it lacks,
// so the certificate is all that unlocks it. An epoch that removes one of
// its fast signers leaves f+p fast votes and no certificate: the unlock
// is cleared. An epoch that removes a replica that signed nothing keeps
// the certificate, which still unlocks itself over the new set.
func TestScrubReDerivesSelfUnlock(t *testing.T) {
	params := types.Params{N: 7, F: 1, P: 1} // f+p = 2 before and after a removal
	set := genesisSet(t, params)
	for _, tc := range []struct {
		name     string
		gone     int // index into the replicas the test picks below
		unlocked bool
	}{{"fast signer removed", 0, false}, {"non-signer removed", 5, true}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, params, set.ReplicaAt(1, 6))
			b1 := r.leaderBlock(1, types.Genesis().ID(), 1)
			ids := peersOf(r) // six replicas: three fast signers, two bare, one silent
			cert := mixedNotarization(r, b1, ids[:3], ids[3:5])
			r.deliver(ids[0], &types.CertMsg{Cert: cert})
			rs := r.eng.rounds[1]
			if !rs.isUnlocked(b1.ID()) || rs.set(types.VoteFast, b1.ID()).count() != 3 {
				t.Fatal("the self-unlocking notarization did not unlock the block")
			}
			next := setWithout(t, r.eng.History().Genesis(), ids[tc.gone], 1)
			if next.Params().UnlockThreshold() != params.UnlockThreshold() {
				t.Fatalf("f+p moved to %d", next.Params().UnlockThreshold())
			}
			r.eng.scrubNonMembers(next)
			rs.recomputeUnlock(next.Params().UnlockThreshold())
			if rs.isUnlocked(b1.ID()) != tc.unlocked || (rs.notarization(b1.ID()) == cert) != tc.unlocked {
				t.Fatalf("after the scrub: unlocked %v, notarization %v; want unlocked %v",
					rs.isUnlocked(b1.ID()), rs.notarization(b1.ID()), tc.unlocked)
			}
		})
	}
}

// TestSeparateProofAdvanceAccepted (n=7): an Advance that carries an
// unlock proof beside a notarization that unlocks itself — what a replica
// that builds a proof for every Advance sends — is accepted, and so is a
// proposal carrying both as parent credentials.
func TestSeparateProofAdvanceAccepted(t *testing.T) {
	set := genesisSet(t, p721)
	donor := newRig(t, p721, set.ReplicaAt(2, 0))
	b1 := donor.leaderBlock(1, types.Genesis().ID(), 1)
	donor.deliver(b1.Proposer, donor.proposalFor(b1))
	for _, p := range peersOf(donor, b1.Proposer)[:p721.NotarizationQuorum()-2] {
		donor.deliver(p, fastVoteMsg(donor, p, b1))
	}
	advs := broadcasts[*types.Advance](donor)
	if len(advs) != 1 || advs[0].Unlock != nil {
		t.Fatalf("donor Advances %v", advs)
	}
	proof := donor.eng.rounds[1].buildUnlockProof(1, b1.ID(), p721.UnlockThreshold())
	if proof == nil {
		t.Fatal("no unlock proof from the donor's votes")
	}
	adv := &types.Advance{Notarization: advs[0].Notarization, Unlock: proof}
	prop := *ownRound2Proposals(donor)[0]
	prop.ParentUnlock = proof

	for _, withAdvance := range []bool{true, false} {
		r := newRig(t, p721, set.ReplicaAt(1, 6))
		if withAdvance {
			r.deliver(donor.eng.ID(), adv)
		}
		r.deliver(donor.eng.ID(), &types.Proposal{Block: prop.Block, FastVote: prop.FastVote,
			ParentNotarization: prop.ParentNotarization, ParentUnlock: proof})
		rs1 := r.eng.rounds[1]
		if rs1.notarization(b1.ID()) == nil || !rs1.isUnlocked(b1.ID()) || r.eng.Metrics()["rejected"] != 0 {
			t.Fatalf("Advance %v: notarization %v, unlocked %v, rejected %d", withAdvance,
				rs1.notarization(b1.ID()), rs1.isUnlocked(b1.ID()), r.eng.Metrics()["rejected"])
		}
		if !r.eng.rounds[2].peek(prop.Block.ID()).valid {
			t.Fatalf("Advance %v: the proposal with a separate parent proof did not validate", withAdvance)
		}
	}
}
