package types

import (
	"reflect"
	"testing"
)

func mkVote(kind VoteKind, round Round, block BlockID, voter ReplicaID) Vote {
	return Vote{Kind: kind, Round: round, Block: block, Voter: voter, Signature: []byte{byte(voter)}}
}

func TestNewCertificate(t *testing.T) {
	var block BlockID
	block[0] = 7
	votes := []Vote{
		mkVote(VoteNotarize, 3, block, 2),
		mkVote(VoteNotarize, 3, block, 0),
		mkVote(VoteNotarize, 3, block, 1),
		mkVote(VoteNotarize, 3, block, 2), // duplicate, dropped
	}
	c, err := NewCertificate(CertNotarization, 3, block, votes)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Signers) != 3 {
		t.Fatalf("got %d signers, want 3", len(c.Signers))
	}
	for i := 1; i < len(c.Signers); i++ {
		if c.Signers[i-1] >= c.Signers[i] {
			t.Fatal("signers not strictly ascending")
		}
	}
	if err := c.CheckShape(4, 3); err != nil {
		t.Fatalf("CheckShape: %v", err)
	}
	if err := c.CheckShape(4, 4); err == nil {
		t.Fatal("CheckShape should fail below quorum")
	}
	if err := c.CheckShape(2, 3); err == nil {
		t.Fatal("CheckShape should fail with out-of-range signer")
	}
}

func TestNewCertificateRejectsMismatches(t *testing.T) {
	var b1, b2 BlockID
	b2[0] = 1
	tests := []struct {
		name string
		vote Vote
	}{
		{"wrong kind", mkVote(VoteFinalize, 3, b1, 0)},
		{"wrong round", mkVote(VoteNotarize, 4, b1, 0)},
		{"wrong block", mkVote(VoteNotarize, 3, b2, 0)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewCertificate(CertNotarization, 3, b1, []Vote{tt.vote}); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestMixedNotarization: a notarization certificate takes fast votes as
// notarization votes and marks them; a voter that supplied both keeps the
// fast one, whatever order the votes came in.
func TestMixedNotarization(t *testing.T) {
	block := BlockID{7}
	fast := func(v ReplicaID) Vote {
		vt := mkVote(VoteFast, 3, block, v)
		vt.Signature = []byte{byte(v), 'f'}
		return vt
	}
	votes := []Vote{
		mkVote(VoteNotarize, 3, block, 4),
		fast(9),
		mkVote(VoteNotarize, 3, block, 1), fast(1), // both: fast wins
		fast(0), mkVote(VoteNotarize, 3, block, 0), // both, other order
	}
	c, err := NewCertificate(CertNotarization, 3, block, votes)
	if err != nil {
		t.Fatal(err)
	}
	wantSigners := []ReplicaID{0, 1, 4, 9}
	wantFast := []bool{true, true, false, true}
	if len(c.Signers) != 4 || len(c.Fast) != 1 {
		t.Fatalf("signers %v, marker %v", c.Signers, c.Fast)
	}
	for i, s := range wantSigners {
		if c.Signers[i] != s || c.FastSigned(i) != wantFast[i] {
			t.Errorf("position %d: signer %d fast=%v, want %d fast=%v", i, c.Signers[i], c.FastSigned(i), s, wantFast[i])
		}
		if wantFast[i] != (len(c.Sigs[i]) == 2) {
			t.Errorf("signer %d: kept signature %q", s, c.Sigs[i])
		}
	}
	if c.FastSigned(4) || c.FastSigned(64) {
		t.Error("FastSigned true beyond the signer list")
	}
	if err := c.CheckShape(10, 4); err != nil {
		t.Fatalf("CheckShape: %v", err)
	}
	// Same voters, any order: the same certificate.
	rev := make([]Vote, len(votes))
	for i, v := range votes {
		rev[len(votes)-1-i] = v
	}
	c2, err := NewCertificate(CertNotarization, 3, block, rev)
	if err != nil || !reflect.DeepEqual(c, c2) {
		t.Fatalf("vote order changed the certificate: %v vs %v (%v)", c, c2, err)
	}
	if d := c.SignerDigests(); d[0] != VoteDigest(VoteNotarize, 3, block) || d[1] != VoteDigest(VoteFast, 3, block) {
		t.Error("SignerDigests are not the two vote digests")
	}
	// No fast vote, no marker: the certificate the baselines build.
	bare, _ := NewCertificate(CertNotarization, 3, block, []Vote{mkVote(VoteNotarize, 3, block, 2)})
	if bare.Fast != nil {
		t.Errorf("marker %v on a certificate of bare votes", bare.Fast)
	}
	// Only notarization mixes: a finalization certificate takes no fast
	// votes, a fast-finalization no notarization votes.
	if _, err := NewCertificate(CertFinalization, 3, block, []Vote{fast(1)}); err == nil {
		t.Error("finalization certificate accepted a fast vote")
	}
	if _, err := NewCertificate(CertFastFinalization, 3, block, []Vote{mkVote(VoteNotarize, 3, block, 1)}); err == nil {
		t.Error("fast-finalization certificate accepted a notarization vote")
	}
}

// TestCheckShapeRejectsBadMarker: the marker is structure like the signer
// list — only on a notarization, exactly sized, no bit past the signers.
func TestCheckShapeRejectsBadMarker(t *testing.T) {
	mk := func(kind CertKind, signers int, marker ...byte) *Certificate {
		c := &Certificate{Kind: kind, Round: 1, Fast: marker}
		for i := 0; i < signers; i++ {
			c.Signers = append(c.Signers, ReplicaID(i))
			c.Sigs = append(c.Sigs, []byte{1})
		}
		return c
	}
	good := []*Certificate{
		mk(CertNotarization, 3),
		mk(CertNotarization, 3, 0b101),
		mk(CertNotarization, 8, 0xFF),
		mk(CertNotarization, 9, 0xFF, 0x01),
		mk(CertFinalization, 3),
	}
	for _, c := range good {
		if err := c.CheckShape(16, 1); err != nil {
			t.Errorf("%v marker %v: %v", c, c.Fast, err)
		}
	}
	bad := map[string]*Certificate{
		"marker on a finalization":      mk(CertFinalization, 3, 0b001),
		"marker on a fast-finalization": mk(CertFastFinalization, 3, 0b001),
		"bit for a non-signer":          mk(CertNotarization, 3, 0b1001),
		"bit for a non-signer, byte 2":  mk(CertNotarization, 9, 0x00, 0x02),
		"marker too long":               mk(CertNotarization, 3, 0b001, 0),
		"marker too short":              mk(CertNotarization, 9, 0xFF),
	}
	for name, c := range bad {
		if err := c.CheckShape(16, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCertKindVoteKind(t *testing.T) {
	tests := []struct {
		cert CertKind
		vote VoteKind
	}{
		{CertNotarization, VoteNotarize},
		{CertFinalization, VoteFinalize},
		{CertFastFinalization, VoteFast},
	}
	for _, tt := range tests {
		if got := tt.cert.VoteKind(); got != tt.vote {
			t.Errorf("%v.VoteKind() = %v, want %v", tt.cert, got, tt.vote)
		}
	}
	if CertKind(0).VoteKind() != 0 {
		t.Error("invalid kind should map to zero")
	}
}

// unlockFixture builds headers for a round with one or two rank-0 blocks
// and one rank-1 block, plus helpers to assemble proofs.
type unlockFixture struct {
	round   Round
	leaderA BlockHeader // rank 0
	leaderB BlockHeader // rank 0 (equivocation)
	rank1   BlockHeader // rank 1
}

func newUnlockFixture(round Round) unlockFixture {
	f := unlockFixture{round: round}
	f.leaderA = BlockHeader{Round: round, Proposer: 0, Rank: 0, PayloadDigest: [32]byte{1}}
	f.leaderB = BlockHeader{Round: round, Proposer: 0, Rank: 0, PayloadDigest: [32]byte{2}}
	f.rank1 = BlockHeader{Round: round, Proposer: 1, Rank: 1, PayloadDigest: [32]byte{3}}
	return f
}

func entry(h BlockHeader, voters ...ReplicaID) UnlockEntry {
	e := UnlockEntry{Header: h}
	for _, v := range voters {
		e.Voters = append(e.Voters, v)
		e.Sigs = append(e.Sigs, []byte{byte(v)})
	}
	return e
}

// TestUnlockProofCondition1 mirrors Figure 4's round k: with n=4, f=1,
// p=1 (threshold 2), three fast votes for the rank-0 block unlock it.
func TestUnlockProofCondition1(t *testing.T) {
	f := newUnlockFixture(5)
	proof := &UnlockProof{
		Round:   5,
		Block:   f.leaderA.ID(),
		Entries: []UnlockEntry{entry(f.leaderA, 0, 1, 2)},
	}
	if !proof.Evaluate(2) {
		t.Fatal("3 votes for the block should exceed threshold 2")
	}
	// Two votes are not enough.
	proof.Entries = []UnlockEntry{entry(f.leaderA, 0, 1)}
	if proof.Evaluate(2) {
		t.Fatal("2 votes must not exceed threshold 2")
	}
	// Votes for the block plus votes for a non-leader block pool together
	// (supp(b) ∪ supp(nonLeaderBlocks)).
	proof.Entries = []UnlockEntry{entry(f.leaderA, 0, 1), entry(f.rank1, 2)}
	if !proof.Evaluate(2) {
		t.Fatal("2 votes for b plus 1 for a non-leader block should unlock")
	}
	// Overlapping voters count once.
	proof.Entries = []UnlockEntry{entry(f.leaderA, 0, 1), entry(f.rank1, 0, 1)}
	if proof.Evaluate(2) {
		t.Fatal("overlapping voters must be deduplicated")
	}
}

// TestUnlockProofCondition2 checks the strict Condition-2 semantics: the
// support bound must hold no matter which rank-0 block is taken as max(k)
// (see Cond2Support for why the paper-literal "largest support" choice is
// unsound against adversarial vote presentation). With n=4, f=1, p=1
// (threshold 2), an equivocating leader's two rank-0 blocks plus a rank-1
// block can still unlock the whole round when support is spread.
func TestUnlockProofCondition2(t *testing.T) {
	f := newUnlockFixture(6)
	proof := &UnlockProof{
		Round: 6,
		All:   true,
		Entries: []UnlockEntry{
			entry(f.leaderA, 0),
			entry(f.leaderB, 1),
			entry(f.rank1, 2, 3),
		},
	}
	// Excluding leaderA leaves voters {1,2,3}; excluding leaderB leaves
	// {0,2,3}: both exceed 2, so the round unlocks.
	if !proof.Evaluate(2) {
		t.Fatal("spread support should satisfy strict condition 2")
	}
	// Concentrated support does not: excluding the heavy rank-0 block
	// leaves too few voters.
	proof.Entries = []UnlockEntry{
		entry(f.leaderA, 0, 1, 2),
		entry(f.rank1, 3),
	}
	if proof.Evaluate(2) {
		t.Fatal("excluding the heavy rank-0 block leaves 1 voter; must fail")
	}
}

// TestUnlockProofCondition2ForgeryResistance is the attack the strict
// semantics exists for: an adversary presents a partial view in which an
// FP-finalized block's votes are hidden behind a fake max, trying to trip
// Condition 2. The strict evaluator also excludes the FP-finalized block
// as a candidate max, capping the count.
func TestUnlockProofCondition2ForgeryResistance(t *testing.T) {
	f := newUnlockFixture(7)
	// Suppose leaderA was FP-finalized with votes {0,1,2} (n-p = 3 of 4).
	// The adversary shows only voter 0 for leaderA, makes leaderB look
	// maximal with Byzantine voter 3, and reuses voter 3 on the rank-1
	// block. Under "largest support is max" the excluded block would be
	// leaderB and the count would be |{0, 3}| -- still short here, but
	// with larger f this forges; strictly, excluding leaderA gives
	// |{3}| = 1 and the proof fails outright.
	proof := &UnlockProof{
		Round: 7,
		All:   true,
		Entries: []UnlockEntry{
			entry(f.leaderA, 0),
			entry(f.leaderB, 3),
			entry(f.rank1, 3),
		},
	}
	if proof.Evaluate(2) {
		t.Fatal("partial-view forgery must not satisfy strict condition 2")
	}
}

func TestUnlockProofRejectsMalformed(t *testing.T) {
	f := newUnlockFixture(8)
	base := func() *UnlockProof {
		return &UnlockProof{
			Round:   8,
			Block:   f.leaderA.ID(),
			Entries: []UnlockEntry{entry(f.leaderA, 0, 1, 2)},
		}
	}
	p := base()
	p.Entries[0].Header.Round = 9 // round mismatch
	if p.Evaluate(2) {
		t.Fatal("entry with mismatched round must fail")
	}
	p = base()
	p.Entries[0].Voters = []ReplicaID{2, 1, 0} // unsorted
	if p.Evaluate(2) {
		t.Fatal("unsorted voters must fail")
	}
	p = base()
	p.Entries[0].Voters = []ReplicaID{0, 0, 1} // duplicates
	if p.Evaluate(2) {
		t.Fatal("duplicate voters must fail")
	}
	p = base()
	p.Entries[0].Sigs = p.Entries[0].Sigs[:2] // sig/voter mismatch
	if p.Evaluate(2) {
		t.Fatal("voter/sig count mismatch must fail")
	}
}

func TestUnlockProofVoteCount(t *testing.T) {
	f := newUnlockFixture(9)
	p := &UnlockProof{
		Round:   9,
		Entries: []UnlockEntry{entry(f.leaderA, 0, 1), entry(f.rank1, 2, 3, 0)},
	}
	if got := p.VoteCount(); got != 5 {
		t.Fatalf("VoteCount = %d, want 5", got)
	}
}

// FuzzMixedCertificate feeds mutated CertMsg frames through decode, the
// shape check and a re-encode: nothing panics, what decodes re-encodes to
// an equal message of exactly EncodedSize bytes, and a certificate that
// passes CheckShape carries a marker only as a notarization, sized to its
// signers, with every marked position a signer's. The seed corpus (run by
// plain `go test`) holds the unmarked and marked forms and the malformed
// markers CheckShape exists to reject.
func FuzzMixedCertificate(f *testing.F) {
	cert := func(kind CertKind, signers int, marker ...byte) []byte {
		c := &Certificate{Kind: kind, Round: 5, Block: BlockID{1}, Fast: marker}
		for i := 0; i < signers; i++ {
			c.Signers = append(c.Signers, ReplicaID(2*i))
			c.Sigs = append(c.Sigs, []byte{byte(i), 1, 2, 3})
		}
		return mustEncode(&CertMsg{Cert: c})
	}
	f.Add(cert(CertNotarization, 3))
	f.Add(cert(CertNotarization, 3, 0b101))
	f.Add(cert(CertNotarization, 13, 0xFF, 0x1F))
	f.Add(cert(CertNotarization, 3, 0b1000))   // bit for a non-signer
	f.Add(cert(CertNotarization, 3, 0b001, 0)) // too long
	f.Add(cert(CertFinalization, 3, 0b001))    // marker on another kind
	f.Add(cert(CertFastFinalization, 5, 0b10101))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		cm, ok := m.(*CertMsg)
		if !ok {
			return
		}
		enc, err := EncodeMessage(&CertMsg{Cert: cm.Cert})
		if err != nil || len(enc) != EncodedSize(m) {
			t.Fatalf("re-encode: %v, %d bytes, EncodedSize %d", err, len(enc), EncodedSize(m))
		}
		again, err := DecodeMessage(enc)
		if err != nil || !reflect.DeepEqual(again.(*CertMsg).Cert, cm.Cert) {
			t.Fatalf("re-encoded certificate decodes differently: %v", err)
		}
		c := cm.Cert
		if c == nil || c.CheckShape(1<<16, 0) != nil {
			return
		}
		if len(c.Fast) > 0 && (c.Kind != CertNotarization || len(c.Fast) != (len(c.Signers)+7)/8) {
			t.Fatalf("CheckShape passed marker %v on %v", c.Fast, c)
		}
		for i := len(c.Signers); i < 8*len(c.Fast)+8; i++ {
			if c.FastSigned(i) {
				t.Fatalf("CheckShape passed a marker naming position %d of %d signers", i, len(c.Signers))
			}
		}
	})
}
