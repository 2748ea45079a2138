package core

import (
	"slices"
	"strings"
	"testing"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// snapshotRig builds an engine plus a properly signed one-block chain
// window and matching finalization certificate, so tests can assemble
// both genuine and doctored snapshots.
func snapshotRig(t *testing.T) (*rig, *types.Block, *types.Certificate) {
	t.Helper()
	params := types.Params{N: 4, F: 1, P: 1}
	r := newRig(t, params, 0)
	b := types.NewBlock(1, 1, 0, types.Genesis().ID(), types.BytesPayload([]byte("x")))
	if err := r.signers[1].SignBlock(b); err != nil {
		t.Fatal(err)
	}
	var votes []types.Vote
	for i := 0; i < params.FinalizationQuorum(); i++ {
		votes = append(votes, r.signers[i].SignVote(types.VoteFinalize, 1, b.ID()))
	}
	cert, err := types.NewCertificate(types.CertFinalization, 1, b.ID(), votes)
	if err != nil {
		t.Fatal(err)
	}
	return r, b, cert
}

// finalCert certifies b with a finalization quorum of the rig's signers.
func (r *rig) finalCert(b *types.Block) *types.Certificate {
	r.t.Helper()
	var votes []types.Vote
	for i := 0; i < r.params.FinalizationQuorum(); i++ {
		votes = append(votes, r.finalVote(types.ReplicaID(i), b))
	}
	c, err := types.NewCertificate(types.CertFinalization, b.Round, b.ID(), votes)
	if err != nil {
		r.t.Fatal(err)
	}
	return c
}

// badWindow is a finalized window with one defect.
type badWindow struct {
	name string
	w    *types.SnapshotResponse
}

// badWindows derives from a genuine window one defective copy per check
// of the trust gate (adoptWindow). Both entrances see the same table: a
// WAL checkpoint in TestRestoreSnapshotRequiresFinalizationCert, a peer's
// snapshot response in TestSnapshotResponseRejectsBadAnchor. r signs the
// doctored blocks and certificates.
func badWindows(r *rig, good *types.SnapshotResponse) []badWindow {
	r.t.Helper()
	n := len(good.Chain)
	tip := good.Chain[n-1]
	window := func(chain []*types.Block, c *types.Certificate) *types.SnapshotResponse {
		return &types.SnapshotResponse{Chain: chain, Finalization: c, Sets: good.Sets}
	}
	signed := func(b *types.Block) *types.Block {
		if err := r.signers[b.Proposer].SignBlock(b); err != nil {
			r.t.Fatal(err)
		}
		return b
	}
	// newTip replaces the tip with b, under a genuine certificate naming b.
	newTip := func(b *types.Block) *types.SnapshotResponse {
		return window(append(slices.Clone(good.Chain[:n-1]), b), r.finalCert(b))
	}
	other := signed(types.NewBlock(tip.Round, tip.Proposer, tip.Rank, tip.Parent, types.BytesPayload([]byte("other"))))
	forged := *good.Chain[n/2]
	forged.Signature = []byte("forged")
	gap := append(slices.Clone(good.Chain[:n/2]), good.Chain[n/2+1:]...)
	nonMember := types.NewBlock(tip.Round, types.ReplicaID(r.params.N), 0, tip.Parent, tip.Payload)
	nonMember.Signature = tip.Signature
	genesis := *good.Sets[0]
	genesis.Keys = slices.Clone(genesis.Keys)
	genesis.Keys[0] = append([]byte("rewritten"), genesis.Keys[0]...)
	rewritten := window(good.Chain, good.Finalization)
	rewritten.Sets = append([]*types.ValidatorSetDesc{&genesis}, good.Sets[1:]...)
	return []badWindow{
		{"no covering certificate", window(good.Chain, r.finalCert(good.Chain[n-2]))},
		{"certificate naming another block", window(good.Chain, r.finalCert(other))},
		{"bad block signature", window(slices.Replace(slices.Clone(good.Chain), n/2, n/2+1, &forged), good.Finalization)},
		{"wrong rank", newTip(signed(types.NewBlock(tip.Round, tip.Proposer, tip.Rank+1, tip.Parent, tip.Payload)))},
		{"broken parent link", window(gap, good.Finalization)},
		{"non-member proposer", newTip(nonMember)},
		{"set history rewriting genesis", rewritten},
	}
}

// TestRestoreSnapshotRequiresFinalizationCert: a chain window of
// validly proposer-signed blocks must NOT restore as finalized history
// unless a quorum-verified finalization certificate covers its tip —
// otherwise a doctored checkpoint could resurrect an abandoned fork as
// the finalized chain. Nor does any window the peer entrance refuses
// (badWindows) restore from a checkpoint.
func TestRestoreSnapshotRequiresFinalizationCert(t *testing.T) {
	r, b, cert := snapshotRig(t)

	// No certificate at all.
	r.eng.BeginReplay()
	err := r.eng.RestoreSnapshot(&protocol.Snapshot{
		Round: 2, FinalizedRound: 1, Chain: []*types.Block{b},
	})
	if err == nil || !strings.Contains(err.Error(), "finalization certificate") {
		t.Fatalf("restore without certificate: got %v", err)
	}

	// Certificate for a different block at the tip round.
	other := types.NewBlock(1, 2, 1, types.Genesis().ID(), types.BytesPayload([]byte("y")))
	if err := r.signers[2].SignBlock(other); err != nil {
		t.Fatal(err)
	}
	var votes []types.Vote
	for i := 0; i < r.params.FinalizationQuorum(); i++ {
		votes = append(votes, r.signers[i].SignVote(types.VoteFinalize, 1, other.ID()))
	}
	otherCert, err := types.NewCertificate(types.CertFinalization, 1, other.ID(), votes)
	if err != nil {
		t.Fatal(err)
	}
	err = r.eng.RestoreSnapshot(&protocol.Snapshot{
		Round: 2, FinalizedRound: 1, Chain: []*types.Block{b},
		Own: []types.Message{&types.CertMsg{Cert: otherCert}},
	})
	if err == nil {
		t.Fatal("restore accepted a window whose tip the certificate does not name")
	}

	// Forged certificate (garbage signatures) naming the right block.
	forged := &types.Certificate{Kind: types.CertFinalization, Round: 1, Block: b.ID(),
		Signers: cert.Signers, Sigs: make([][]byte, len(cert.Sigs))}
	for i := range forged.Sigs {
		forged.Sigs[i] = []byte("forged")
	}
	err = r.eng.RestoreSnapshot(&protocol.Snapshot{
		Round: 2, FinalizedRound: 1, Chain: []*types.Block{b},
		Own: []types.Message{&types.CertMsg{Cert: forged}},
	})
	if err == nil {
		t.Fatal("restore accepted a forged finalization certificate")
	}

	// The genuine snapshot restores.
	err = r.eng.RestoreSnapshot(&protocol.Snapshot{
		Round: 2, FinalizedRound: 1, Chain: []*types.Block{b},
		Own: []types.Message{&types.CertMsg{Cert: cert}},
	})
	if err != nil {
		t.Fatalf("genuine snapshot refused: %v", err)
	}
	if got := r.eng.Tree().FinalizedRound(); got != 1 {
		t.Fatalf("restored finalized round %d, want 1", got)
	}
	if r.eng.Round() != 2 {
		t.Fatalf("restored round %d, want 2", r.eng.Round())
	}

	// Every defect the gate checks, in a checkpoint of a deep-pruned
	// server's window: refused without a trace, and the genuine window
	// still restores afterwards.
	server := newWindowServer(t, 30)
	serveActs := server.eng.HandleMessage(3, &types.SnapshotRequest{Have: 0}, server.now)
	good := serveActs[0].(protocol.Send).Msg.(*types.SnapshotResponse)
	checkpoint := func(w *types.SnapshotResponse) *protocol.Snapshot {
		tip := w.Chain[len(w.Chain)-1].Round
		s := &protocol.Snapshot{Round: tip + 1, FinalizedRound: tip, Chain: w.Chain, Sets: w.Sets}
		if w.Finalization != nil {
			s.Own = []types.Message{&types.CertMsg{Cert: w.Finalization}}
		}
		return s
	}
	fresh := newRig(t, r.params, 3)
	fresh.eng.BeginReplay()
	for _, bad := range badWindows(server, good) {
		if err := fresh.eng.RestoreSnapshot(checkpoint(bad.w)); err == nil {
			t.Fatalf("%s: checkpoint restored", bad.name)
		}
		if fin, epochs := fresh.eng.Tree().FinalizedRound(), fresh.eng.History().Len(); fin != 0 || epochs != 1 {
			t.Fatalf("%s: refused checkpoint left finalized round %d, %d epochs", bad.name, fin, epochs)
		}
	}
	if err := fresh.eng.RestoreSnapshot(checkpoint(good)); err != nil {
		t.Fatalf("genuine checkpoint refused after bad ones: %v", err)
	}
	if fin := fresh.eng.Tree().FinalizedRound(); fin != server.eng.Tree().FinalizedRound() {
		t.Fatalf("restored finalized round %d, want %d", fin, server.eng.Tree().FinalizedRound())
	}
}

// TestRestoreSnapshotRefusesBadBlockSignature: window blocks re-verify
// their proposer signatures on restore.
func TestRestoreSnapshotRefusesBadBlockSignature(t *testing.T) {
	r, b, cert := snapshotRig(t)
	bad := types.NewBlock(b.Round, b.Proposer, b.Rank, b.Parent, b.Payload)
	bad.Signature = []byte("not a signature")
	r.eng.BeginReplay()
	err := r.eng.RestoreSnapshot(&protocol.Snapshot{
		Round: 2, FinalizedRound: 1, Chain: []*types.Block{bad},
		Own: []types.Message{&types.CertMsg{Cert: cert}},
	})
	if err == nil {
		t.Fatal("restore accepted a window block with a bad proposer signature")
	}
}
