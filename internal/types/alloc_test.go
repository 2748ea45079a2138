package types

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestEncodedSizeExact checks EncodedSize equals the encoded length for
// every message kind and payload representation — the property the
// one-allocation encode path and the pooled frame writers rely on.
func TestEncodedSizeExact(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	msgs := []Message{
		&SyncRequest{From: 3, To: 99},
		&SyncResponse{},
		&SnapshotRequest{Have: 42},
		&SnapshotResponse{},
	}
	for i := 0; i < 200; i++ {
		fv := randomVote(r)
		p := &Proposal{Block: randomBlock(r), Relayed: r.Intn(2) == 0}
		if r.Intn(2) == 0 {
			p.ParentNotarization = randomCert(r)
		}
		if r.Intn(2) == 0 {
			p.ParentUnlock = randomUnlock(r)
		}
		if r.Intn(2) == 0 {
			p.FastVote = &fv
		}
		msgs = append(msgs,
			p,
			&VoteMsg{Votes: []Vote{randomVote(r), randomVote(r)}},
			&CertMsg{Cert: randomCert(r)},
			&Advance{Notarization: randomCert(r), Unlock: randomUnlock(r)},
			&SyncResponse{Blocks: []*Block{randomBlock(r)}, Finalization: randomCert(r)},
			&SnapshotResponse{Chain: []*Block{randomBlock(r)}, Finalization: randomCert(r)},
			&BatchAnnounce{Origin: ReplicaID(i), Digest: [32]byte{byte(i)}, Body: randomBlock(r).Payload},
			&BatchAnnounce{Origin: ReplicaID(i), Digest: [32]byte{byte(i)}}, // availability ack
			&BatchRequest{Digest: [32]byte{byte(i), 7}},
			&BatchResponse{Digest: [32]byte{byte(i)}, Body: randomBlock(r).Payload},
			&Proposal{Block: NewBlock(Round(i), 2, 0, BlockID{9}, randomBatchPayload(r))},
			&Proposal{Header: randomBlock(r).SignedHeader(), ParentNotarization: randomCert(r), FastVote: &fv, Relayed: true},
			&BlockRequest{Round: Round(i), ID: BlockID{byte(i), 3}},
		)
	}
	for _, m := range msgs {
		enc, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := EncodedSize(m), len(enc); got != want {
			t.Fatalf("%T: EncodedSize %d != encoded length %d", m, got, want)
		}
	}
}

// TestReencodeStable checks a message decoded in place re-encodes to its
// received bytes on every call, through EncodeMessage and AppendMessage,
// each time into a fresh buffer that does not alias the input, and that
// encoding a message leaves nothing on it: each encode is a fresh buffer.
func TestReencodeStable(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	m := &VoteMsg{Votes: []Vote{randomVote(r), randomVote(r)}}
	fresh, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeMessageInPlace(fresh)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := EncodeMessage(dec)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := EncodeMessage(dec)
	if !bytes.Equal(fresh, c1) || !bytes.Equal(c2, c1) {
		t.Fatal("EncodeMessage did not reproduce the in-place decoder's input")
	}
	if &c1[0] == &fresh[0] || &c2[0] == &c1[0] {
		t.Fatal("EncodeMessage returned a buffer it did not allocate")
	}
	app, err := AppendMessage(make([]byte, 0, len(c1)), dec)
	if err != nil || !bytes.Equal(app, c1) {
		t.Fatalf("AppendMessage mismatch: %v", err)
	}

	// An encoded message keeps nothing: each encode is a fresh buffer.
	e1, _ := EncodeMessage(m)
	e2, _ := EncodeMessage(m)
	if !bytes.Equal(e1, fresh) || !bytes.Equal(e2, fresh) || &e1[0] == &e2[0] {
		t.Fatal("EncodeMessage reused a buffer across calls")
	}
}

// TestDecodeMessageInPlaceAliases checks aliasing mode really is
// zero-copy (slices point into the input) and still round-trips.
func TestDecodeMessageInPlaceAliases(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	m := &VoteMsg{Votes: []Vote{randomVote(r)}}
	enc := mustEncode(m)
	dec, err := DecodeMessageInPlace(enc)
	if err != nil {
		t.Fatal(err)
	}
	sig := dec.(*VoteMsg).Votes[0].Signature
	if len(sig) == 0 {
		t.Fatal("fixture vote has no signature")
	}
	aliased := false
	for i := range enc {
		if &enc[i] == &sig[0] {
			aliased = true
			break
		}
	}
	if !aliased {
		t.Fatal("decoded signature does not alias the input buffer")
	}
}

// TestAllocRegressionBareProposal gates a credential-less rank-0
// proposal — a bare body, as a Byzantine leader can send — the same way:
// it must stay on the one-allocation encode path, and, once decoded in
// place, re-encode into a reserved buffer with zero allocations, with
// EncodedSize exact.
func TestAllocRegressionBareProposal(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	b := NewBlock(7, 3, 0, BlockID{1, 2, 3}, SyntheticPayload(4096, 99))
	b.Signature = make([]byte, 64)
	r.Read(b.Signature)
	m := &Proposal{Block: b}

	enc, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := EncodedSize(m), len(enc); got != want {
		t.Fatalf("EncodedSize %d != encoded length %d", got, want)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := EncodeMessage(m); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("bare proposal EncodeMessage: %v allocs/op, budget 1", n)
	}
	dec, err := DecodeMessageInPlace(enc)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, EncodedSize(dec))
	if n := testing.AllocsPerRun(200, func() {
		if _, err := AppendMessage(buf, dec); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("decoded bare proposal AppendMessage: %v allocs/op, budget 0", n)
	}
	if got, _ := AppendMessage(buf, dec); !bytes.Equal(got, enc) {
		t.Error("decoded bare proposal re-encodes to different bytes")
	}
}

// TestAllocRegressionHeaderRelay gates the messages the relay path now
// sends once per vote: the header-form proposal (with the steady-state
// credentials — proposer fast vote and a 3-signer parent notarization)
// and the BlockRequest. Encode stays on the one-allocation path, and a
// relay decoded in place re-encodes into a reserved buffer with none; the
// in-place decode fits the proposal arena like the body form does.
func TestAllocRegressionHeaderRelay(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	b := NewBlock(9, 2, 0, BlockID{4, 5}, BytesPayload(randomBytes(r, 64<<10)))
	b.Signature = randomBytes(r, 64)
	fv := Vote{Kind: VoteFast, Round: 9, Block: b.ID(), Voter: 2, Signature: randomBytes(r, 64)}
	cert := &Certificate{Kind: CertNotarization, Round: 8, Block: b.Parent}
	for i := 0; i < 3; i++ {
		cert.Signers = append(cert.Signers, ReplicaID(i))
		cert.Sigs = append(cert.Sigs, randomBytes(r, 64))
	}
	relay := &Proposal{Header: b.SignedHeader(), ParentNotarization: cert, FastVote: &fv, Relayed: true}
	req := &BlockRequest{Round: 9, ID: b.ID()}

	if n := testing.AllocsPerRun(200, func() {
		if _, err := EncodeMessage(relay); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("header relay EncodeMessage: %v allocs/op, budget 1", n)
	}
	received, err := DecodeMessageInPlace(mustEncode(relay))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, EncodedSize(received))
	if n := testing.AllocsPerRun(200, func() {
		if _, err := AppendMessage(buf, received); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("received header relay AppendMessage: %v allocs/op, budget 0", n)
	}
	if got, _ := AppendMessage(buf, received); !bytes.Equal(got, mustEncode(relay)) {
		t.Error("received header relay re-encodes to different bytes")
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := EncodeMessage(req); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("BlockRequest EncodeMessage: %v allocs/op, budget 1", n)
	}

	relayEnc, reqEnc := mustEncode(relay), mustEncode(req)
	decode := func(data []byte) {
		if _, err := decodeMessage(data, true); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() { decode(relayEnc) }); n > 2 {
		t.Errorf("decode-inplace header relay: %v allocs/op, budget 2", n)
	}
	if n := testing.AllocsPerRun(200, func() { decode(reqEnc) }); n > 2 {
		t.Errorf("decode BlockRequest: %v allocs/op, budget 2", n)
	}
}

// TestAllocRegressionDecodeInPlace gates the read-path allocation budget:
// the steady-state messages (a proposal with parent credentials, a vote
// bundle) must decode in-place into their single arena allocation instead
// of one allocation per retained sub-object. The fixtures mirror
// bench_test.go's steady-state shapes.
func TestAllocRegressionDecodeInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	b := NewBlock(9, 2, 0, BlockID{4, 5}, BytesPayload(randomBytes(r, 512)))
	b.Signature = randomBytes(r, 64)
	fv := Vote{Kind: VoteFast, Round: 9, Block: b.ID(), Voter: 2, Signature: randomBytes(r, 64)}
	cert := &Certificate{Kind: CertNotarization, Round: 8, Block: b.Parent}
	for i := 0; i < 3; i++ {
		cert.Signers = append(cert.Signers, ReplicaID(i))
		cert.Sigs = append(cert.Sigs, randomBytes(r, 64))
	}
	proposal := mustEncode(&Proposal{Block: b, ParentNotarization: cert, FastVote: &fv})
	votes := mustEncode(&VoteMsg{Votes: []Vote{fv, {Kind: VoteNotarize, Round: 9, Block: b.ID(), Voter: 2, Signature: randomBytes(r, 64)}}})

	// A reconfiguration proposal: the ConfigChange decodes into the arena
	// scratch slot, not a per-message heap object, so it shares the plain
	// proposal's budget.
	rb := NewBlock(9, 2, 1, BlockID{4, 5},
		ConfigChangePayload(ConfigChange{Op: ConfigAdd, Replica: 4, PubKey: randomBytes(r, 32)},
			BytesPayload(randomBytes(r, 512))))
	rb.Signature = randomBytes(r, 64)
	reconfig := mustEncode(&Proposal{Block: rb, ParentNotarization: cert})

	decode := func(data []byte) {
		if _, err := decodeMessage(data, true); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() { decode(proposal) }); n > 2 {
		t.Errorf("decode-inplace proposal: %v allocs/op, budget 2", n)
	}
	if n := testing.AllocsPerRun(200, func() { decode(reconfig) }); n > 2 {
		t.Errorf("decode-inplace reconfig proposal: %v allocs/op, budget 2", n)
	}
	if n := testing.AllocsPerRun(200, func() { decode(votes) }); n > 1 {
		t.Errorf("decode-inplace votemsg: %v allocs/op, budget 1", n)
	}
}

// TestAllocRegressionMarkedCertificate: the fast-vote marker of a
// notarization certificate costs no allocation anywhere on the wire path
// — it aliases the frame in place and shares the copy-mode scratch — so
// every message that carries a notarization decodes and encodes on the
// budget of the unmarked form.
func TestAllocRegressionMarkedCertificate(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	b := NewBlock(9, 2, 0, BlockID{4, 5}, BytesPayload(randomBytes(r, 512)))
	b.Signature = randomBytes(r, 64)
	cert := &Certificate{Kind: CertNotarization, Round: 8, Block: b.Parent}
	for i := 0; i < 13; i++ {
		cert.Signers = append(cert.Signers, ReplicaID(i))
		cert.Sigs = append(cert.Sigs, randomBytes(r, 64))
	}
	marked := *cert
	marked.Fast = []byte{0xFF, 0x1F}
	shapes := func(c *Certificate) []Message {
		return []Message{
			&CertMsg{Cert: c},
			&Advance{Notarization: c},
			&Proposal{Block: b, ParentNotarization: c},
			&Proposal{Header: b.SignedHeader(), ParentNotarization: c, Relayed: true},
		}
	}
	plainMsgs, markedMsgs := shapes(cert), shapes(&marked)
	for i := range plainMsgs {
		for _, alias := range []bool{true, false} {
			allocs := func(m Message) float64 {
				enc := mustEncode(m)
				return testing.AllocsPerRun(200, func() {
					if _, err := decodeMessage(enc, alias); err != nil {
						t.Fatal(err)
					}
				})
			}
			if plain, marked := allocs(plainMsgs[i]), allocs(markedMsgs[i]); marked > plain {
				t.Errorf("%T decode (alias=%v): %v allocs with the marker, %v without",
					plainMsgs[i], alias, marked, plain)
			}
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := AppendMessage(make([]byte, 0, EncodedSize(markedMsgs[i])), markedMsgs[i]); err != nil {
				t.Fatal(err)
			}
		}); n > 1 {
			t.Errorf("%T encode with the marker: %v allocs/op, budget 1", markedMsgs[i], n)
		}
	}
}

// TestDecodeArenaOverflow checks the arena fallbacks: signer counts and
// vote bundles beyond the fixed arena capacity still decode correctly
// (into heap slices), so the budget optimization cannot change behavior.
func TestDecodeArenaOverflow(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	cert := &Certificate{Kind: CertNotarization, Round: 3, Block: BlockID{1}}
	for i := 0; i < arenaSigners+9; i++ {
		cert.Signers = append(cert.Signers, ReplicaID(i))
		cert.Sigs = append(cert.Sigs, randomBytes(r, 16))
	}
	b := NewBlock(4, 1, 1, BlockID{1}, BytesPayload([]byte("tx")))
	b.Signature = randomBytes(r, 64)
	got := roundTrip(t, &Proposal{Block: b, ParentNotarization: cert}).(*Proposal)
	if len(got.ParentNotarization.Signers) != arenaSigners+9 {
		t.Fatalf("overflow cert lost signers: %d", len(got.ParentNotarization.Signers))
	}
	for i, s := range got.ParentNotarization.Signers {
		if s != cert.Signers[i] || !bytes.Equal(got.ParentNotarization.Sigs[i], cert.Sigs[i]) {
			t.Fatalf("overflow cert corrupted signer %d", i)
		}
	}

	vm := &VoteMsg{}
	for i := 0; i < 9; i++ {
		vm.Votes = append(vm.Votes, randomVote(r))
	}
	gotVM := roundTrip(t, vm).(*VoteMsg)
	if len(gotVM.Votes) != len(vm.Votes) {
		t.Fatalf("overflow vote bundle lost votes: %d", len(gotVM.Votes))
	}
	for i := range vm.Votes {
		if gotVM.Votes[i].Digest() != vm.Votes[i].Digest() {
			t.Fatalf("overflow vote %d digest changed", i)
		}
	}
}

// TestAllocRegressionEncode gates the steady-state allocation budget of
// the encode hot path: one exact-size allocation for a fresh encode,
// zero for an append into pre-reserved capacity, for a fresh message and
// for one decoded in place alike. A failure here means the zero-allocation
// pipeline regressed.
func TestAllocRegressionEncode(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	m := &VoteMsg{Votes: []Vote{randomVote(r), randomVote(r)}}

	if n := testing.AllocsPerRun(200, func() {
		if _, err := EncodeMessage(m); err != nil {
			t.Fatal(err)
		}
	}); n > 1 { // exactly the one exact-size output buffer
		t.Errorf("EncodeMessage: %v allocs/op, budget 1", n)
	}

	buf := make([]byte, 0, EncodedSize(m))
	if n := testing.AllocsPerRun(200, func() {
		if _, err := AppendMessage(buf, m); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("AppendMessage into reserved capacity: %v allocs/op, budget 0", n)
	}

	dec, err := DecodeMessageInPlace(mustEncode(m))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := AppendMessage(buf, dec); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("AppendMessage of a decoded message: %v allocs/op, budget 0", n)
	}
}
