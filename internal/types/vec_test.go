package types

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// vecEncode runs AppendMessageVec behind a prefix, as the TCP transport
// does behind its length prefix, and returns the concatenated segments
// with the prefix cut off. It fails the test on a head whose length is
// not VecHeadSize's head, on segments whose length is not its size, or on
// a Ref that is shorter than RefMin or out of order.
func vecEncode(t *testing.T, m Message) []byte {
	t.Helper()
	prefix := []byte("pfx:")
	head, refs, err := AppendMessageVec(append([]byte(nil), prefix...), m)
	if err != nil {
		t.Fatalf("%T: AppendMessageVec: %v", m, err)
	}
	headSize, size := VecHeadSize(m)
	if got := len(head) - len(prefix); got != headSize {
		t.Fatalf("%T: head of %d bytes, VecHeadSize %d", m, got, headSize)
	}
	at := len(prefix)
	for _, r := range refs {
		if len(r.Data) < RefMin || r.At < at || r.At > len(head) {
			t.Fatalf("%T: Ref of %d bytes at %d (head %d bytes, previous at %d)", m, len(r.Data), r.At, len(head), at)
		}
		at = r.At
	}
	got := bytes.Join(Segments(nil, head, refs), nil)
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("%T: segments lost the prefix", m)
	}
	if len(got)-len(prefix) != size {
		t.Fatalf("%T: segments of %d bytes, VecHeadSize counts %d", m, len(got)-len(prefix), size)
	}
	return got[len(prefix):]
}

// vecSeeds is one message of each kind the reference-mode encoder treats
// differently: a relayed header, multi-block sync and snapshot responses,
// batch bodies, payloads just under, at and far over RefMin, and payloads
// in list form (TxsPayload) with transactions on both sides of RefMin.
func vecSeeds() []Message {
	r := rand.New(rand.NewSource(21))
	block := func(round Round, size int) *Block {
		b := NewBlock(round, 1, 0, BlockID{byte(round)}, BytesPayload(randomBytes(r, size)))
		b.Signature = randomBytes(r, 64)
		return b
	}
	fv := randomVote(r)
	cert := randomCert(r)
	set := &ValidatorSetDesc{Epoch: 1, Activation: 9, F: 1, P: 1,
		Members: []ReplicaID{0, 1, 2, 3}, Keys: [][]byte{randomBytes(r, 32), randomBytes(r, 32), randomBytes(r, 32), randomBytes(r, 32)}}
	body := BytesPayload(randomBytes(r, 2*RefMin))
	txsBlock := NewBlock(10, 1, 0, BlockID{10}, TxsPayload([][]byte{
		randomBytes(r, 16<<10), randomBytes(r, 100), randomBytes(r, RefMin), randomBytes(r, 16<<10)}))
	txsBlock.Signature = randomBytes(r, 64)
	txsBody := TxsPayload([][]byte{randomBytes(r, 2*RefMin), randomBytes(r, 7)})
	return []Message{
		&Proposal{Header: block(3, 64).SignedHeader(), ParentNotarization: cert, FastVote: &fv, Relayed: true},
		&Proposal{Block: block(4, RefMin-1), ParentNotarization: cert, FastVote: &fv},
		&Proposal{Block: block(5, RefMin), ParentNotarization: cert, ParentUnlock: randomUnlock(r)},
		&Proposal{Block: block(6, 256<<10), ParentNotarization: cert, FastVote: &fv},
		&SyncResponse{Blocks: []*Block{block(7, RefMin), block(8, 100), block(9, 3*RefMin)}, Finalization: cert},
		&SnapshotResponse{Chain: []*Block{block(7, RefMin+1), block(8, 2*RefMin)}, Finalization: cert, Sets: []*ValidatorSetDesc{set}},
		&BatchAnnounce{Origin: 2, Digest: body.Digest(), Body: body},
		&BatchResponse{Digest: body.Digest(), Body: body},
		&Proposal{Block: txsBlock, ParentNotarization: cert, FastVote: &fv},
		&BatchAnnounce{Origin: 3, Digest: txsBody.Digest(), Body: txsBody},
	}
}

// TestAppendMessageVecReferencesPayload: a large payload is not copied —
// its one Ref points into Payload.Data and the head holds only the
// fields around it — while a payload one byte under RefMin is copied and
// one of exactly RefMin is not.
func TestAppendMessageVecReferencesPayload(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	data := randomBytes(r, 256<<10)
	b := NewBlock(9, 2, 0, BlockID{1}, BytesPayload(data))
	b.Signature = randomBytes(r, 64)
	fv := randomVote(r)
	m := &Proposal{Block: b, ParentNotarization: randomCert(r), FastVote: &fv}
	head, refs, err := AppendMessageVec(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || &refs[0].Data[0] != &data[0] || len(refs[0].Data) != len(data) {
		t.Fatalf("got %d Refs, want one to Payload.Data", len(refs))
	}
	if len(head)+len(data) != EncodedSize(m) || len(head) > 2<<10 {
		t.Fatalf("head %d bytes + payload %d != EncodedSize %d", len(head), len(data), EncodedSize(m))
	}

	for size, want := range map[int]int{RefMin - 1: 0, RefMin: 1} {
		small := NewBlock(9, 2, 0, BlockID{1}, BytesPayload(data[:size]))
		small.Signature = b.Signature
		if _, refs, _ := AppendMessageVec(nil, &Proposal{Block: small}); len(refs) != want {
			t.Fatalf("payload of %d bytes: %d Refs, want %d", size, len(refs), want)
		}
	}
}

// asTxsList rebuilds the payloads of a body-form proposal or a batch
// body in list form (TxsPayload), where the contiguous bytes split into
// length-prefixed transactions; it reports false when m has none to
// rebuild.
func asTxsList(m Message) (Message, bool) {
	split := func(p *Payload) bool {
		if p.HasBatches() || len(p.Data) == 0 {
			return false
		}
		var txs [][]byte
		for data := p.Data; len(data) > 0; {
			if len(data) < 4 || int(binary.LittleEndian.Uint32(data)) > len(data)-4 {
				return false
			}
			n := 4 + int(binary.LittleEndian.Uint32(data))
			txs = append(txs, data[4:n])
			data = data[n:]
		}
		list := TxsPayload(txs)
		if p.Change != nil {
			list = ConfigChangePayload(*p.Change, list)
		}
		*p = list
		return true
	}
	switch v := m.(type) {
	case *Proposal:
		if v.Block == nil {
			return nil, false
		}
		b := *v.Block
		cp := *v
		cp.Block = &b
		return &cp, split(&b.Payload)
	case *BatchAnnounce:
		cp := *v
		return &cp, split(&cp.Body)
	case *BatchResponse:
		cp := *v
		return &cp, split(&cp.Body)
	}
	return nil, false
}

// FuzzAppendMessageVec: whatever decodes, by copy or in place (its
// payloads aliasing the received bytes), the reference-mode segments
// concatenate to exactly the bytes EncodeMessage gives the copy, and so
// do EncodeMessage and the segments of the message with its payload
// rebuilt as a transaction list. EncodedSize counts the encoding's
// length and VecHeadSize the head's (vecEncode checks it). The seeds
// (vecSeeds) run under plain go test.
func FuzzAppendMessageVec(f *testing.F) {
	for _, m := range vecSeeds() {
		f.Add(mustEncode(m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return
		}
		want, err := EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		if EncodedSize(m) != len(want) {
			t.Fatalf("%T: EncodedSize %d, encoded %d", m, EncodedSize(m), len(want))
		}
		if !bytes.Equal(vecEncode(t, m), want) {
			t.Fatalf("%T: segments differ from EncodeMessage", m)
		}
		dec, err := DecodeMessageInPlace(append([]byte(nil), data...))
		if err != nil {
			t.Fatalf("in-place decode failed where copying decode succeeded: %v", err)
		}
		if !bytes.Equal(vecEncode(t, dec), want) {
			t.Fatalf("%T decoded in place: segments differ from EncodeMessage", m)
		}
		if list, ok := asTxsList(m); ok {
			if !bytes.Equal(mustEncode(list), want) || !bytes.Equal(vecEncode(t, list), want) {
				t.Fatalf("%T in list form: encoding differs from the contiguous form", m)
			}
		}
	})
}
