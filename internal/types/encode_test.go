package types

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// randomVote builds an arbitrary vote from a fuzz source.
func randomVote(r *rand.Rand) Vote {
	v := Vote{
		Kind:  VoteKind(r.Intn(3) + 1),
		Round: Round(r.Uint64() >> 16),
		Voter: ReplicaID(r.Intn(1 << 16)),
	}
	r.Read(v.Block[:])
	if n := r.Intn(80); n > 0 {
		v.Signature = make([]byte, n)
		r.Read(v.Signature)
	}
	return v
}

func randomBlock(r *rand.Rand) *Block {
	b := NewBlock(Round(r.Uint64()>>16), ReplicaID(r.Intn(1<<15)), Rank(r.Intn(1<<15)), BlockID{}, Payload{})
	b.Epoch = uint32(r.Intn(8))
	r.Read(b.Parent[:])
	switch r.Intn(4) {
	case 0: // concrete payload
		data := make([]byte, r.Intn(512)+1)
		r.Read(data)
		b.Payload = BytesPayload(data)
	case 1: // synthetic payload
		b.Payload = SyntheticPayload(r.Intn(1<<20)+1, r.Uint64())
	case 2: // digest-list payload
		b.Payload = randomBatchPayload(r)
	default: // empty
	}
	b.Signature = make([]byte, 64)
	r.Read(b.Signature)
	return b
}

func randomCert(r *rand.Rand) *Certificate {
	c := &Certificate{
		Kind:  CertKind(r.Intn(3) + 1),
		Round: Round(r.Uint64() >> 16),
	}
	r.Read(c.Block[:])
	n := r.Intn(20) + 1
	for i := 0; i < n; i++ {
		c.Signers = append(c.Signers, ReplicaID(i*3+r.Intn(2)))
		sig := make([]byte, 32)
		r.Read(sig)
		c.Sigs = append(c.Sigs, sig)
	}
	if c.Kind == CertNotarization && r.Intn(2) == 0 {
		// Mixed notarization: a random subset of signers marked as having
		// signed the fast-vote digest.
		c.Fast = make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				c.Fast[i/8] |= 1 << (i % 8)
			}
		}
		c.Fast[0] |= 1 // never all-clear: that form carries no marker at all
	}
	return c
}

func randomUnlock(r *rand.Rand) *UnlockProof {
	u := &UnlockProof{
		Round: Round(r.Uint64() >> 16),
		All:   r.Intn(2) == 0,
	}
	r.Read(u.Block[:])
	for i := 0; i < r.Intn(4); i++ {
		e := UnlockEntry{Header: BlockHeader{
			Round:    u.Round,
			Proposer: ReplicaID(r.Intn(64)),
			Rank:     Rank(r.Intn(8)),
		}}
		r.Read(e.Header.Parent[:])
		r.Read(e.Header.PayloadDigest[:])
		for j := 0; j < r.Intn(5)+1; j++ {
			e.Voters = append(e.Voters, ReplicaID(j*2))
			sig := make([]byte, 32)
			r.Read(sig)
			e.Sigs = append(e.Sigs, sig)
		}
		u.Entries = append(u.Entries, e)
	}
	return u
}

// randomBatchPayload builds a digest-list payload: 1-6 batch refs plus an
// optional inline tail.
func randomBatchPayload(r *rand.Rand) Payload {
	refs := make([]BatchRef, r.Intn(6)+1)
	for i := range refs {
		r.Read(refs[i].Digest[:])
		refs[i].Size = uint32(r.Intn(1<<20) + 1)
	}
	var inline []byte
	if r.Intn(2) == 0 {
		inline = randomBytes(r, r.Intn(128)+1)
	}
	return BatchPayload(refs, inline)
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	enc, err := EncodeMessage(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := DecodeMessage(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return dec
}

func TestProposalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		fv := randomVote(r)
		p := &Proposal{
			Block:   randomBlock(r),
			Relayed: r.Intn(2) == 0,
		}
		if r.Intn(2) == 0 {
			p.ParentNotarization = randomCert(r)
		}
		if r.Intn(2) == 0 {
			p.ParentUnlock = randomUnlock(r)
		}
		if r.Intn(2) == 0 {
			p.FastVote = &fv
		}
		got := roundTrip(t, p).(*Proposal)
		if got.Block.ID() != p.Block.ID() {
			t.Fatalf("block identity changed: %v vs %v", got.Block, p.Block)
		}
		if !reflect.DeepEqual(normalizeProposal(got), normalizeProposal(p)) {
			t.Fatalf("round-trip mismatch:\n got %#v\nwant %#v", got, p)
		}
	}
}

// TestBareAndRelayedProposalShapes pins two rank-0 wire shapes: the
// bare body (no fast vote, no parent credentials — nothing but the
// block), which a Byzantine leader can send and receivers must park, and
// a relayed rank-0 proposal carrying the proposer's fast vote (relays
// forward that vote so replicas the original broadcast missed can still
// validate). Both must round-trip exactly and survive mutation fuzzing.
func TestBareAndRelayedProposalShapes(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	block := func() *Block {
		var parent BlockID
		r.Read(parent[:])
		b := NewBlock(Round(r.Uint64()>>17)+2, ReplicaID(r.Intn(64)), 0,
			parent, BytesPayload(randomBytes(r, 64)))
		b.Signature = randomBytes(r, 64)
		return b
	}
	for i := 0; i < 100; i++ {
		bare := &Proposal{Block: block()}
		got := roundTrip(t, bare).(*Proposal)
		if got.Block.ID() != bare.Block.ID() {
			t.Fatal("bare proposal changed block identity")
		}
		if got.FastVote != nil || got.ParentNotarization != nil || got.ParentUnlock != nil || got.Relayed {
			t.Fatalf("bare proposal grew fields in transit: %#v", got)
		}

		b := block()
		fv := Vote{Kind: VoteFast, Round: b.Round, Block: b.ID(),
			Voter: b.Proposer, Signature: randomBytes(r, 64)}
		relay := &Proposal{Block: b, FastVote: &fv, Relayed: true}
		rt := roundTrip(t, relay).(*Proposal)
		if !rt.Relayed || rt.FastVote == nil || rt.FastVote.Digest() != fv.Digest() {
			t.Fatalf("relayed proposal lost the proposer fast vote: %#v", rt)
		}
	}

	// Mutation fuzz over the bare encoding: a flipped bit must never panic
	// the decoder or produce a message that still verifies as the original.
	valid := mustEncode(&Proposal{Block: block()})
	for i := 0; i < 2000; i++ {
		data := append([]byte(nil), valid...)
		data[r.Intn(len(data))] ^= byte(1 << r.Intn(8))
		_, _ = DecodeMessage(data)
	}
}

// TestHeaderProposalRoundTrip pins the header form of a proposal — the
// line-35 relay: signed header, credentials, no payload. Whatever the
// payload's form (inline, synthetic, batch refs, reconfig wrapper) the
// header re-hashes to the block's ID, the encoding is the same few
// hundred bytes, and WireSize/EncodedSize both equal its length (a
// header relay of a synthetic block is not charged the logical payload).
func TestHeaderProposalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		b := randomBlock(r)
		switch i % 4 {
		case 1:
			b.Payload = SyntheticPayload(1<<20, uint64(i))
		case 2:
			b.Payload = randomBatchPayload(r)
		case 3:
			b.Payload = ConfigChangePayload(ConfigChange{Op: ConfigRemove, Replica: 3}, BytesPayload(randomBytes(r, 4096)))
		}
		fv := Vote{Kind: VoteFast, Round: b.Round, Block: b.ID(), Voter: b.Proposer, Signature: randomBytes(r, 64)}
		p := &Proposal{Header: b.SignedHeader(), Relayed: true}
		if r.Intn(2) == 0 {
			p.FastVote = &fv
		}
		bare := WireSize(p)
		if r.Intn(2) == 0 {
			p.ParentNotarization = randomCert(r)
		}
		if r.Intn(2) == 0 {
			p.ParentUnlock = randomUnlock(r)
		}
		enc := mustEncode(p)
		if WireSize(p) != len(enc) || EncodedSize(p) != len(enc) {
			t.Fatalf("header proposal: WireSize %d, EncodedSize %d, encoded %d", WireSize(p), EncodedSize(p), len(enc))
		}
		if bare > 300 {
			t.Fatalf("header relay without parent credentials is %d bytes (payload %d)", bare, b.Payload.Size())
		}
		got := roundTrip(t, p).(*Proposal)
		if got.Block != nil || got.Header == nil || !got.Relayed {
			t.Fatalf("header form lost in transit: %#v", got)
		}
		if got.Header.ID() != b.ID() || got.Header.BlockHeader != b.Header() ||
			!bytes.Equal(got.Header.Signature, b.Signature) {
			t.Fatalf("header changed in transit: %#v vs %v", got.Header, b)
		}
		if (got.FastVote == nil) != (p.FastVote == nil) ||
			(got.FastVote != nil && got.FastVote.Digest() != fv.Digest()) {
			t.Fatal("header relay lost or changed the proposer fast vote")
		}
		if !reflect.DeepEqual(got.ParentNotarization, p.ParentNotarization) ||
			!reflect.DeepEqual(got.ParentUnlock, p.ParentUnlock) {
			t.Fatal("header relay changed the parent credentials")
		}
		// In-place decode aliases the frame and keeps it as the cache.
		ip, err := DecodeMessageInPlace(enc)
		if err != nil || ip.(*Proposal).Header.ID() != b.ID() {
			t.Fatalf("in-place decode: %v", err)
		}
	}

	// Mutation fuzz: a flipped bit must never panic the decoder, and a
	// mutant that still decodes to a header form must not keep the ID
	// unless the flip missed the header.
	b := randomBlock(r)
	valid := mustEncode(&Proposal{Header: b.SignedHeader(), Relayed: true})
	for i := 0; i < 4000; i++ {
		data := append([]byte(nil), valid...)
		at := r.Intn(len(data))
		data[at] ^= byte(1 << r.Intn(8))
		m, err := DecodeMessage(data)
		if err != nil {
			continue
		}
		// Bytes 3..82 are the hashed header (after kind, relayed, form tag).
		if p, ok := m.(*Proposal); ok && p.Header != nil && at >= 3 && at < 3+80 && p.Header.ID() == b.ID() {
			t.Fatalf("header mutated at byte %d still hashes to the original ID", at)
		}
	}
	// An unknown block-form tag is rejected, not read as a body.
	bad := append([]byte(nil), valid...)
	bad[2] = 3
	if _, err := DecodeMessage(bad); err == nil {
		t.Fatal("unknown proposal block form accepted")
	}
}

// TestBlockRequestRoundTrip covers the pull request: exact round-trip,
// comparable, fixed 41-byte size, and fuzz-safe.
func TestBlockRequestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for i := 0; i < 100; i++ {
		m := &BlockRequest{Round: Round(r.Uint64())}
		r.Read(m.ID[:])
		enc := mustEncode(m)
		if len(enc) != 41 || WireSize(m) != 41 || EncodedSize(m) != 41 {
			t.Fatalf("BlockRequest sizes: enc %d wire %d encoded %d", len(enc), WireSize(m), EncodedSize(m))
		}
		if got := roundTrip(t, m).(*BlockRequest); *got != *m {
			t.Fatalf("round-trip mismatch: %+v vs %+v", got, m)
		}
		if _, err := DecodeMessage(enc[:len(enc)-1]); err == nil {
			t.Fatal("truncated BlockRequest accepted")
		}
		data := append([]byte(nil), enc...)
		data[r.Intn(len(data))] ^= byte(1 << r.Intn(8))
		_, _ = DecodeMessage(data) // must not panic
	}
	if MsgBlockRequest.String() != "block-request" {
		t.Fatalf("kind name %q", MsgBlockRequest)
	}
}

func randomBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

// normalizeProposal strips unexported cache fields for comparison.
func normalizeProposal(p *Proposal) *Proposal {
	cp := *p
	b := *p.Block
	b.ID() // force hash so both sides cache
	cp.Block = &b
	return &cp
}

func TestVoteMsgRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		m := &VoteMsg{}
		for j := 0; j < r.Intn(3)+1; j++ {
			m.Votes = append(m.Votes, randomVote(r))
		}
		got := roundTrip(t, m).(*VoteMsg)
		if len(got.Votes) != len(m.Votes) {
			t.Fatalf("vote count %d != %d", len(got.Votes), len(m.Votes))
		}
		for j := range m.Votes {
			if got.Votes[j].Digest() != m.Votes[j].Digest() {
				t.Fatalf("vote %d digest changed", j)
			}
			if !bytes.Equal(got.Votes[j].Signature, m.Votes[j].Signature) {
				t.Fatalf("vote %d signature changed", j)
			}
		}
	}
}

func TestCertMsgRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		m := &CertMsg{Cert: randomCert(r)}
		got := roundTrip(t, m).(*CertMsg)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round-trip mismatch:\n got %#v\nwant %#v", got.Cert, m.Cert)
		}
	}
}

// TestMarkedCertificateWire covers the marker's wire form: presence byte
// 2 and the bitmap after the signer list when (and only when) a signer is
// marked, the pre-marker layout byte for byte otherwise — a journal
// written before the marker existed decodes as it always did — exact
// sizes, in-place aliasing, and a decoder that no flipped bit can panic.
func TestMarkedCertificateWire(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	cert := &Certificate{Kind: CertNotarization, Round: 8, Block: BlockID{4}}
	for i := 0; i < 13; i++ {
		cert.Signers = append(cert.Signers, ReplicaID(i))
		cert.Sigs = append(cert.Sigs, randomBytes(r, 64))
	}
	plain := mustEncode(&CertMsg{Cert: cert})
	if plain[1] != 1 {
		t.Fatalf("unmarked certificate presence byte %d, want 1", plain[1])
	}
	marked := *cert
	marked.Fast = []byte{0b1010_0101, 0b0001_0001}
	enc := mustEncode(&CertMsg{Cert: &marked})
	if enc[1] != certMarkedTag || len(enc) != len(plain)+4+2 {
		t.Fatalf("marked certificate: presence byte %d, %d bytes over the unmarked form", enc[1], len(enc)-len(plain))
	}
	if !bytes.Equal(enc[2:len(plain)], plain[2:]) {
		t.Fatal("the marker changed the layout ahead of it")
	}
	for _, m := range []Message{
		&CertMsg{Cert: &marked},
		&Advance{Notarization: &marked, Unlock: randomUnlock(r)},
		&Proposal{Header: randomBlock(r).SignedHeader(), ParentNotarization: &marked, Relayed: true},
		&Proposal{Block: randomBlock(r), ParentNotarization: &marked},
		&SyncResponse{Finalization: &marked}, // wrong kind of certificate for the field: still round-trips
	} {
		enc := mustEncode(m)
		if EncodedSize(m) != len(enc) {
			t.Fatalf("%T: EncodedSize %d, encoded %d", m, EncodedSize(m), len(enc))
		}
		if got := roundTrip(t, m); !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Fatalf("%T round-trip mismatch:\n got %#v\nwant %#v", m, got, m)
		}
		ip, err := DecodeMessageInPlace(enc)
		if err != nil || !reflect.DeepEqual(normalize(ip), normalize(m)) {
			t.Fatalf("%T in-place decode: %v", m, err)
		}
	}
	// In place, the marker aliases the frame like the signatures do.
	ip, _ := DecodeMessageInPlace(enc)
	fast := ip.(*CertMsg).Cert.Fast
	if &fast[0] != &enc[len(enc)-2] {
		t.Error("in-place decode copied the marker")
	}

	// An unknown presence byte is rejected, not read as a certificate.
	bad := append([]byte(nil), enc...)
	bad[1] = 3
	if _, err := DecodeMessage(bad); err == nil {
		t.Error("unknown certificate form accepted")
	}
	// Mutation fuzz: no panic; a mutant that decodes is either the
	// original or differs from it — and the shape check, not the decoder,
	// is what judges its marker.
	for i := 0; i < 4000; i++ {
		data := append([]byte(nil), enc...)
		at := r.Intn(len(data))
		data[at] ^= byte(1 << r.Intn(8))
		m, err := DecodeMessage(data)
		if err != nil {
			continue
		}
		if c := m.(*CertMsg).Cert; c != nil && reflect.DeepEqual(c, &marked) {
			t.Fatalf("flip at byte %d decoded to the original certificate", at)
		}
	}
	// The flips that land in the marker's length or padding are the ones
	// CheckShape exists for.
	for _, mutant := range []*Certificate{
		{Kind: CertNotarization, Signers: cert.Signers, Sigs: cert.Sigs, Fast: []byte{0xFF, 0xFF}},
		{Kind: CertNotarization, Signers: cert.Signers, Sigs: cert.Sigs, Fast: []byte{0xFF}},
		{Kind: CertFinalization, Signers: cert.Signers, Sigs: cert.Sigs, Fast: marked.Fast},
	} {
		got := roundTrip(t, &CertMsg{Cert: mutant}).(*CertMsg).Cert
		if !reflect.DeepEqual(got.Fast, mutant.Fast) {
			t.Fatal("a malformed marker did not survive the wire to be judged")
		}
		if got.CheckShape(64, 1) == nil {
			t.Errorf("malformed marker %v on a %s accepted", got.Fast, got.Kind)
		}
	}
}

// normalize strips what decoding memoizes (cached IDs) so
// messages compare by content.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *CertMsg:
		return &CertMsg{Cert: v.Cert}
	case *Advance:
		return &Advance{Notarization: v.Notarization, Unlock: v.Unlock}
	case *SyncResponse:
		return &SyncResponse{Blocks: v.Blocks, Finalization: v.Finalization}
	case *Proposal:
		cp := &Proposal{ParentNotarization: v.ParentNotarization, ParentUnlock: v.ParentUnlock, Relayed: v.Relayed}
		if v.Header != nil {
			cp.Header = &SignedHeader{BlockHeader: v.Header.BlockHeader, Signature: v.Header.Signature}
		}
		if v.Block != nil {
			cp.Header = v.Block.SignedHeader()
			cp.Header.id, cp.Header.hashed = BlockID{}, false
		}
		return cp
	}
	return m
}

func TestAdvanceRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		m := &Advance{}
		if r.Intn(4) > 0 {
			m.Notarization = randomCert(r)
		}
		if r.Intn(4) > 0 {
			m.Unlock = randomUnlock(r)
		}
		got := roundTrip(t, m).(*Advance)
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round-trip mismatch:\n got %#v\nwant %#v", got, m)
		}
	}
}

// TestWireSizeMatchesEncoding checks WireSize equals the encoded length
// for concrete (non-synthetic) payloads — the property the bandwidth model
// relies on.
func TestWireSizeMatchesEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		var m Message
		switch r.Intn(4) {
		case 0:
			b := randomBlock(r)
			if b.Payload.IsSynthetic() {
				b.Payload = BytesPayload(b.Payload.Materialize())
			}
			fv := randomVote(r)
			m = &Proposal{Block: b, ParentNotarization: randomCert(r), FastVote: &fv}
		case 1:
			m = &VoteMsg{Votes: []Vote{randomVote(r), randomVote(r)}}
		case 2:
			m = &CertMsg{Cert: randomCert(r)}
		default:
			m = &Advance{Notarization: randomCert(r), Unlock: randomUnlock(r)}
		}
		enc, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		if WireSize(m) != len(enc) {
			t.Fatalf("%T: WireSize %d != encoded %d", m, WireSize(m), len(enc))
		}
	}
}

// TestSyntheticWireSizeCharged checks synthetic payloads are charged at
// their logical size even though their encoding is a small descriptor.
func TestSyntheticWireSizeCharged(t *testing.T) {
	small := NewBlock(1, 0, 0, BlockID{}, SyntheticPayload(1<<20, 7))
	big := NewBlock(1, 0, 0, BlockID{}, SyntheticPayload(2<<20, 7))
	ps, pb := WireSize(&Proposal{Block: small}), WireSize(&Proposal{Block: big})
	if pb-ps != 1<<20 {
		t.Fatalf("synthetic payload size not charged: %d vs %d", ps, pb)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"unknown kind", []byte{99}},
		{"retired kind", []byte{5}},
		{"truncated proposal", []byte{byte(MsgProposal), 1, 1}},
		{"truncated vote", []byte{byte(MsgVote), 2, 0}},
		{"trailing garbage", append(mustEncode(&CertMsg{}), 0xFF)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeMessage(tt.data); err == nil {
				t.Error("expected decode error")
			}
		})
	}
}

// TestDecodeFuzz feeds random bytes into the decoder: it must never panic
// and never allocate absurd amounts.
func TestDecodeFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		data := make([]byte, r.Intn(200))
		r.Read(data)
		_, _ = DecodeMessage(data) // must not panic
	}
	// Mutate valid encodings.
	valid := mustEncode(&Proposal{Block: NewBlock(3, 1, 1, BlockID{}, BytesPayload([]byte("xyz")))})
	for i := 0; i < 2000; i++ {
		data := append([]byte(nil), valid...)
		data[r.Intn(len(data))] ^= byte(1 << r.Intn(8))
		_, _ = DecodeMessage(data)
	}
}

// TestHugeLengthPrefixRejected checks a hostile length prefix cannot force
// a giant allocation.
func TestHugeLengthPrefixRejected(t *testing.T) {
	e := &encoder{}
	e.u8(uint8(MsgVote))
	e.u16(1)
	e.u8(uint8(VoteNotarize))
	e.u64(1)
	e.id(BlockID{})
	e.u16(0)
	e.u32(0xFFFFFFFF) // absurd signature length
	if _, err := DecodeMessage(e.buf); err == nil {
		t.Fatal("expected error for huge length prefix")
	}
}

func mustEncode(m Message) []byte {
	b, err := EncodeMessage(m)
	if err != nil {
		panic(err)
	}
	return b
}

// TestNilEmptyPayloadIdentity is the regression test for the TCP bug where
// an empty payload changed identity across the wire: all empty payload
// representations must share one digest, and decoding must preserve it.
func TestNilEmptyPayloadIdentity(t *testing.T) {
	a := Payload{}
	b := Payload{Data: []byte{}}
	c := SyntheticPayload(0, 0)
	if a.Digest() != b.Digest() || b.Digest() != c.Digest() {
		t.Fatal("empty payload representations disagree on digest")
	}
	blk := NewBlock(5, 2, 1, BlockID{}, Payload{})
	blk.Signature = []byte("s")
	got := roundTrip(t, &Proposal{Block: blk}).(*Proposal)
	if got.Block.ID() != blk.ID() {
		t.Fatal("empty-payload block changed identity over the wire")
	}
}

// TestQuickVoteDigest checks digest injectivity over vote fields with
// testing/quick: distinct (kind, round, block) never collide.
func TestQuickVoteDigest(t *testing.T) {
	f := func(r1, r2 uint32, b1, b2 [32]byte, k1, k2 uint8) bool {
		kind1 := VoteKind(k1%3 + 1)
		kind2 := VoteKind(k2%3 + 1)
		d1 := VoteDigest(kind1, Round(r1), BlockID(b1))
		d2 := VoteDigest(kind2, Round(r2), BlockID(b2))
		same := kind1 == kind2 && r1 == r2 && b1 == b2
		return same == (d1 == d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickHeaderID checks header hashing matches block hashing for all
// field combinations.
func TestQuickHeaderID(t *testing.T) {
	f := func(round uint32, proposer, rank uint16, parent [32]byte, data []byte) bool {
		b := NewBlock(Round(round), ReplicaID(proposer), Rank(rank), BlockID(parent), BytesPayload(data))
		return b.Header().ID() == b.ID()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSyncMessagesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		req := &SyncRequest{From: Round(r.Uint64() >> 16), To: Round(r.Uint64() >> 16)}
		got := roundTrip(t, req).(*SyncRequest)
		if *got != *req {
			t.Fatalf("sync request mismatch: %+v vs %+v", got, req)
		}

		resp := &SyncResponse{}
		for j := 0; j < r.Intn(4); j++ {
			b := randomBlock(r)
			resp.Blocks = append(resp.Blocks, b)
		}
		if r.Intn(2) == 0 {
			resp.Finalization = randomCert(r)
		}
		gotResp := roundTrip(t, resp).(*SyncResponse)
		if len(gotResp.Blocks) != len(resp.Blocks) {
			t.Fatalf("block count %d vs %d", len(gotResp.Blocks), len(resp.Blocks))
		}
		for j := range resp.Blocks {
			if gotResp.Blocks[j].ID() != resp.Blocks[j].ID() {
				t.Fatalf("block %d identity changed", j)
			}
		}
		if !reflect.DeepEqual(gotResp.Finalization, resp.Finalization) {
			t.Fatal("finalization certificate changed")
		}
	}
}

func TestSyncResponseBlockLimitEnforced(t *testing.T) {
	// The decoder bound must match the MaxSyncBlocks limit onSyncResponse
	// enforces: exactly MaxSyncBlocks decodes, one more is rejected.
	mk := func(n int) []byte {
		resp := &SyncResponse{}
		for i := 0; i < n; i++ {
			resp.Blocks = append(resp.Blocks, NewBlock(Round(i+1), 0, 0, BlockID{}, Payload{}))
		}
		enc, err := EncodeMessage(resp)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	if _, err := DecodeMessage(mk(MaxSyncBlocks)); err != nil {
		t.Fatalf("full sync response rejected: %v", err)
	}
	if _, err := DecodeMessage(mk(MaxSyncBlocks + 1)); err == nil {
		t.Fatal("oversized sync response decoded")
	}
}

func TestSnapshotMessagesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		req := &SnapshotRequest{Have: Round(r.Uint64() >> 16)}
		got := roundTrip(t, req).(*SnapshotRequest)
		if *got != *req {
			t.Fatalf("snapshot request mismatch: %+v vs %+v", got, req)
		}

		resp := &SnapshotResponse{Finalization: randomCert(r)}
		for j := 0; j < r.Intn(4); j++ {
			resp.Chain = append(resp.Chain, randomBlock(r))
		}
		gotResp := roundTrip(t, resp).(*SnapshotResponse)
		if len(gotResp.Chain) != len(resp.Chain) {
			t.Fatalf("chain length %d vs %d", len(gotResp.Chain), len(resp.Chain))
		}
		for j := range resp.Chain {
			if gotResp.Chain[j].ID() != resp.Chain[j].ID() {
				t.Fatalf("block %d identity changed", j)
			}
		}
		if !reflect.DeepEqual(gotResp.Finalization, resp.Finalization) {
			t.Fatal("finalization certificate changed")
		}
	}
}

// TestBatchMessagesRoundTrip covers the dissemination wire messages:
// bodies (concrete and synthetic), availability acks, and requests must
// survive the codec exactly, and a digest-list payload's block identity
// must be stable across the wire.
func TestBatchMessagesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 100; i++ {
		ann := &BatchAnnounce{Origin: ReplicaID(r.Intn(64))}
		r.Read(ann.Digest[:])
		switch r.Intn(3) {
		case 0:
			ann.Body = BytesPayload(randomBytes(r, r.Intn(4096)+1))
		case 1:
			ann.Body = SyntheticPayload(r.Intn(1<<22)+1, r.Uint64())
		default: // empty body: availability ack
		}
		got := roundTrip(t, ann).(*BatchAnnounce)
		if got.Origin != ann.Origin || got.Digest != ann.Digest {
			t.Fatalf("announce header changed: %+v vs %+v", got, ann)
		}
		if got.Body.Digest() != ann.Body.Digest() || got.IsAck() != ann.IsAck() {
			t.Fatal("announce body changed in transit")
		}

		req := &BatchRequest{}
		r.Read(req.Digest[:])
		if gotReq := roundTrip(t, req).(*BatchRequest); *gotReq != *req {
			t.Fatalf("request mismatch: %+v vs %+v", gotReq, req)
		}

		resp := &BatchResponse{Body: BytesPayload(randomBytes(r, r.Intn(2048)+1))}
		r.Read(resp.Digest[:])
		gotResp := roundTrip(t, resp).(*BatchResponse)
		if gotResp.Digest != resp.Digest || gotResp.Body.Digest() != resp.Body.Digest() {
			t.Fatal("response changed in transit")
		}
	}
}

// TestBatchPayloadIdentity pins the digest-list payload semantics: the
// digest commits ref order, ref sizes, and the inline tail; Size reports
// the logical bytes; and the proposal wire size is independent of the
// referenced body sizes (the decoupling this layer exists for).
func TestBatchPayloadIdentity(t *testing.T) {
	refs := []BatchRef{{Digest: [32]byte{1}, Size: 1 << 20}, {Digest: [32]byte{2}, Size: 512}}
	p := BatchPayload(refs, []byte("tail"))
	if got, want := p.Size(), 1<<20+512+4; got != want {
		t.Fatalf("Size %d, want %d", got, want)
	}
	swapped := BatchPayload([]BatchRef{refs[1], refs[0]}, []byte("tail"))
	if p.Digest() == swapped.Digest() {
		t.Fatal("digest ignores ref order")
	}
	resized := BatchPayload([]BatchRef{{Digest: refs[0].Digest, Size: 99}, refs[1]}, []byte("tail"))
	if p.Digest() == resized.Digest() {
		t.Fatal("digest ignores ref size")
	}
	noTail := BatchPayload(refs, nil)
	if p.Digest() == noTail.Digest() {
		t.Fatal("digest ignores inline tail")
	}
	plain := BytesPayload([]byte("tail"))
	if p.Digest() == plain.Digest() {
		t.Fatal("digest-list payload collides with plain payload")
	}

	small := &Proposal{Block: NewBlock(1, 0, 0, BlockID{}, BatchPayload([]BatchRef{{Size: 64 << 10}}, nil))}
	big := &Proposal{Block: NewBlock(1, 0, 0, BlockID{}, BatchPayload([]BatchRef{{Size: 4 << 20}}, nil))}
	if WireSize(small) != WireSize(big) {
		t.Fatalf("proposal wire size depends on referenced body size: %d vs %d", WireSize(small), WireSize(big))
	}
	if enc := mustEncode(big); len(enc) != WireSize(big) {
		t.Fatalf("batch proposal WireSize %d != encoded %d", WireSize(big), len(enc))
	}

	blk := NewBlock(5, 2, 1, BlockID{}, p)
	blk.Signature = []byte("s")
	got := roundTrip(t, &Proposal{Block: blk}).(*Proposal)
	if got.Block.ID() != blk.ID() {
		t.Fatal("digest-list block changed identity over the wire")
	}
	if !reflect.DeepEqual(got.Block.Payload.Batches, refs) {
		t.Fatalf("refs changed: %+v", got.Block.Payload.Batches)
	}
}

// TestBatchRefLimitEnforced checks a hostile ref count dies in the
// decoder.
func TestBatchRefLimitEnforced(t *testing.T) {
	e := &encoder{}
	e.u8(uint8(MsgBatchResponse))
	e.hash([32]byte{})
	e.u8(2)                 // digest-list payload tag
	e.u32(MaxBatchRefs + 1) // absurd ref count
	if _, err := DecodeMessage(e.buf); err == nil {
		t.Fatal("expected error for huge batch ref count")
	}
}

func TestSnapshotResponseBlockLimitEnforced(t *testing.T) {
	resp := &SnapshotResponse{}
	for i := 0; i < MaxSnapshotBlocks+1; i++ {
		resp.Chain = append(resp.Chain, NewBlock(Round(i+1), 0, 0, BlockID{}, Payload{}))
	}
	enc, err := EncodeMessage(resp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(enc); err == nil {
		t.Fatal("oversized snapshot response decoded")
	}
}
