package types

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// concatTxs is the contiguous form of a transaction list: each tx behind
// its little-endian uint32 length, end to end.
func concatTxs(txs [][]byte) []byte {
	var out []byte
	for _, tx := range txs {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(tx)))
		out = append(out, tx...)
	}
	return out
}

// txsFixtures are transaction lists on both sides of RefMin: empty, all
// small, exactly RefMin, a 256 KiB block of 16 KiB transactions, and a
// mix in which small transactions sit between referenced ones.
func txsFixtures() map[string][][]byte {
	r := rand.New(rand.NewSource(40))
	many := func(n, size int) [][]byte {
		txs := make([][]byte, n)
		for i := range txs {
			txs[i] = randomBytes(r, size)
		}
		return txs
	}
	return map[string][][]byte{
		"nil":     nil,
		"empty":   {},
		"small":   many(7, 100),
		"at":      many(2, RefMin),
		"below":   many(3, RefMin-1),
		"block":   many(15, 16<<10),
		"mixed":   {randomBytes(r, 5), randomBytes(r, 2*RefMin), randomBytes(r, 1), randomBytes(r, RefMin), randomBytes(r, 300)},
		"onlyBig": many(1, 64<<10),
	}
}

// TestTxsPayloadMatchesBytes: the list form is the contiguous form of
// its concatenation in every respect consensus and the wire see — Size,
// Digest, Block.ID, EncodedSize, EncodeMessage's bytes and the
// reference-mode segments — alone and under a validator-set change.
// The segments reference every transaction of at least RefMin bytes
// where it lies.
func TestTxsPayloadMatchesBytes(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	sig := randomBytes(r, 64)
	change := ConfigChange{Op: ConfigAdd, Replica: 5, PubKey: randomBytes(r, 32)}
	for name, txs := range txsFixtures() {
		for _, withChange := range []bool{false, true} {
			list, flat := TxsPayload(txs), BytesPayload(concatTxs(txs))
			if withChange {
				list, flat = ConfigChangePayload(change, list), ConfigChangePayload(change, flat)
			}
			if list.Size() != flat.Size() || list.Digest() != flat.Digest() {
				t.Fatalf("%s (change %v): size %d / %d, digests equal %v", name, withChange,
					list.Size(), flat.Size(), list.Digest() == flat.Digest())
			}
			if list.IsSynthetic() || !bytes.Equal(list.Materialize(), flat.Materialize()) {
				t.Fatalf("%s (change %v): list form is not the concrete bytes", name, withChange)
			}
			lb, fb := NewBlock(9, 2, 0, BlockID{7}, list), NewBlock(9, 2, 0, BlockID{7}, flat)
			lb.Signature, fb.Signature = sig, sig
			if lb.ID() != fb.ID() {
				t.Fatalf("%s (change %v): block IDs differ", name, withChange)
			}
			pairs := []struct {
				lm, fm Message
				copies int
			}{
				{&Proposal{Block: lb}, &Proposal{Block: fb}, 1},
				{&BatchAnnounce{Origin: 1, Digest: list.Digest(), Body: list}, &BatchAnnounce{Origin: 1, Digest: flat.Digest(), Body: flat}, 1},
				{&BatchResponse{Digest: list.Digest(), Body: list}, &BatchResponse{Digest: flat.Digest(), Body: flat}, 1},
				{&SyncResponse{Blocks: []*Block{lb, lb}}, &SyncResponse{Blocks: []*Block{fb, fb}}, 2},
			}
			for _, pair := range pairs {
				lm, fm := pair.lm, pair.fm
				want := mustEncode(fm)
				if EncodedSize(lm) != EncodedSize(fm) || WireSize(lm) != WireSize(fm) {
					t.Fatalf("%s (change %v) %T: EncodedSize %d / %d, WireSize %d / %d", name, withChange, lm,
						EncodedSize(lm), EncodedSize(fm), WireSize(lm), WireSize(fm))
				}
				if got := mustEncode(lm); !bytes.Equal(got, want) {
					t.Fatalf("%s (change %v) %T: EncodeMessage bytes differ", name, withChange, lm)
				}
				if !bytes.Equal(vecEncode(t, lm), want) || !bytes.Equal(vecEncode(t, fm), want) {
					t.Fatalf("%s (change %v) %T: segments differ from EncodeMessage", name, withChange, lm)
				}
				checkTxsReferenced(t, lm, txs, pair.copies)
				dec, err := DecodeMessage(want)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(mustEncode(dec), want) {
					t.Fatalf("%s (change %v) %T: round trip differs", name, withChange, lm)
				}
			}
		}
	}
}

// checkTxsReferenced asserts AppendMessageVec leaves every transaction of
// at least RefMin bytes where it lies: m carries the list copies times,
// and each such transaction is one Ref, in order, to the transaction
// itself.
func checkTxsReferenced(t *testing.T, m Message, txs [][]byte, copies int) {
	t.Helper()
	_, refs, err := AppendMessageVec(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for c := 0; c < copies; c++ {
		for _, tx := range txs {
			if len(tx) >= RefMin {
				want = append(want, tx)
			}
		}
	}
	if len(refs) != len(want) {
		t.Fatalf("%T: %d Refs, want %d", m, len(refs), len(want))
	}
	for i, r := range refs {
		if len(r.Data) != len(want[i]) || &r.Data[0] != &want[i][0] {
			t.Fatalf("%T: Ref %d is not its transaction in place", m, i)
		}
	}
}
