package wal

import (
	"math/rand"
	"testing"
	"time"

	"banyan/internal/types"
)

// benchRecord is the dominant journal entry in steady state: an inbound
// VoteMsg carrying a bundled notarize+fast vote pair.
func benchRecord() Record {
	r := rand.New(rand.NewSource(42))
	vote := func(kind types.VoteKind) types.Vote {
		v := types.Vote{Kind: kind, Round: 9, Voter: 1}
		r.Read(v.Block[:])
		v.Signature = make([]byte, 64)
		r.Read(v.Signature)
		return v
	}
	return Record{
		Kind: KindInbound,
		From: 1,
		Msg:  &types.VoteMsg{Votes: []types.Vote{vote(types.VoteNotarize), vote(types.VoteFast)}},
	}
}

// BenchmarkWALAppend measures the journaling cost per record under the two
// sync policies: an fsync per append, and group commit with the 2 ms window
// replicas default to, where the background syncer amortizes one fsync
// over every record of the window. appends/fsync reports the amortization
// actually achieved; the ns/op gap between the two is the group-commit
// gain.
func BenchmarkWALAppend(b *testing.B) {
	for _, tc := range []struct {
		name string
		sync SyncPolicy
	}{
		{"sync=every-record", SyncPolicy{EveryRecord: true}},
		{"sync=group", SyncPolicy{Interval: 2 * time.Millisecond}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			log, _, err := Open(b.TempDir(), Options{Sync: tc.sync, SegmentBytes: 1 << 30})
			if err != nil {
				b.Fatal(err)
			}
			rec := benchRecord()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := log.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := log.Close(); err != nil {
				b.Fatal(err)
			}
			appends, syncs := log.Stats()
			b.ReportMetric(float64(appends)/float64(max(syncs, 1)), "appends/fsync")
		})
	}
}
