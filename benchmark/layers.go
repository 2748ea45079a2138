package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"banyan/internal/crypto"
	"banyan/internal/mempool"
	"banyan/internal/transport/tcp"
	"banyan/internal/types"
	"banyan/internal/wal"
)

// layerSpec says which unit costs a workload's traced run times, and at
// what sizes.
type layerSpec struct {
	n, f       int
	blockBytes int
	txSize     int // 0: the workload has no transaction mempool
	tcp, wal   bool
}

// layerTimings are unit costs of single calls into each layer, timed by
// the benchmark around the call with nothing else running. A layer the
// workload does not use reports 0.
type layerTimings struct {
	signUs, verifyUs, verifyCertUs     float64
	encodeProposalUs, decodeProposalUs float64
	encodeVoteNs                       float64
	payloadHashUs                      float64
	nextPayloadUs, decodeBatchUs       float64
	// broadcastUs is the caller's time in Transport.Broadcast;
	// broadcastCPUUs is the whole process's CPU per broadcast, which adds
	// the socket writes and the receivers' reads and decodes.
	broadcastUs, broadcastCPUUs float64
	walAppendUs                 float64
}

func (lt layerTimings) fill(v values) {
	v["crypto.sign_us"] = lt.signUs
	v["crypto.verify_us"] = lt.verifyUs
	v["crypto.verify_cert_us"] = lt.verifyCertUs
	v["types.encode_proposal_us"] = lt.encodeProposalUs
	v["types.decode_proposal_us"] = lt.decodeProposalUs
	v["types.encode_vote_ns"] = lt.encodeVoteNs
	v["types.payload_hash_us"] = lt.payloadHashUs
	v["mempool.next_payload_us"] = lt.nextPayloadUs
	v["mempool.decode_batch_us"] = lt.decodeBatchUs
	v["tcp.broadcast_us"] = lt.broadcastUs
	v["tcp.broadcast_cpu_us"] = lt.broadcastCPUUs
	v["wal.append_us"] = lt.walAppendUs
}

// timeLayers measures the unit costs for one workload. scratch is a
// directory the WAL timing may write under.
func timeLayers(spec layerSpec, seed uint64, scratch string) (layerTimings, error) {
	const rounds = 5
	var lt layerTimings
	rng := rand.New(rand.NewSource(int64(seed)))

	params := types.Params{N: spec.n, F: spec.f, P: 1}
	quorum := params.NotarizationQuorum()
	keyring, signers := crypto.GenerateCluster(crypto.Ed25519(), spec.n, seed)
	var blockID types.BlockID
	rng.Read(blockID[:])
	lt.signUs = timeOp(rounds, 200, func() { signers[0].SignVote(types.VoteNotarize, 9, blockID) }) / 1e3
	votes := make([]types.Vote, quorum)
	for i := range votes {
		votes[i] = signers[i].SignVote(types.VoteNotarize, 9, blockID)
	}
	var verr error
	lt.verifyUs = timeOp(rounds, 200, func() {
		if err := crypto.VerifyVote(keyring, votes[0]); err != nil {
			verr = err
		}
	}) / 1e3
	cert, err := types.NewCertificate(types.CertNotarization, 9, blockID, votes)
	if err != nil {
		return lt, fmt.Errorf("building a certificate: %w", err)
	}
	lt.verifyCertUs = timeOp(rounds, 40, func() {
		if err := crypto.VerifyCert(keyring, cert, quorum); err != nil {
			verr = err
		}
	}) / 1e3
	if verr != nil {
		return lt, fmt.Errorf("verifying a fresh signature: %w", verr)
	}

	// One proposal at the workload's block size, as a leader broadcasts it.
	payload := make([]byte, spec.blockBytes)
	rng.Read(payload)
	block := types.NewBlock(10, 0, 0, blockID, types.BytesPayload(payload))
	if err := signers[0].SignBlock(block); err != nil {
		return lt, fmt.Errorf("signing a block: %w", err)
	}
	fast := signers[0].SignVote(types.VoteFast, 10, block.ID())
	proposal := &types.Proposal{Block: block, ParentNotarization: cert, FastVote: &fast}
	enc, err := types.EncodeMessage(proposal)
	if err != nil {
		return lt, fmt.Errorf("encoding a proposal: %w", err)
	}
	var cerr error
	lt.encodeProposalUs = timeOp(rounds, 50, func() {
		if _, err := types.EncodeMessage(proposal); err != nil {
			cerr = err
		}
	}) / 1e3
	lt.decodeProposalUs = timeOp(rounds, 50, func() {
		if _, err := types.DecodeMessageInPlace(enc); err != nil {
			cerr = err
		}
	}) / 1e3
	voteMsg := &types.VoteMsg{Votes: []types.Vote{votes[0], fast}}
	lt.encodeVoteNs = timeOp(rounds, 1000, func() {
		if _, err := types.EncodeMessage(voteMsg); err != nil {
			cerr = err
		}
	})
	if cerr != nil {
		return lt, fmt.Errorf("wire codec: %w", cerr)
	}
	lt.payloadHashUs = timeOp(rounds, 20, func() {
		p := types.BytesPayload(payload) // a fresh value: Digest memoizes
		p.Digest()
	}) / 1e3

	if spec.txSize > 0 {
		// A mempool holding one block's worth, drained into a payload and
		// decoded back, as the proposer and the commit reader do.
		perBlock := spec.blockBytes / (spec.txSize + 4)
		if perBlock < 1 {
			perBlock = 1
		}
		pool := mempool.NewPool(0, spec.blockBytes)
		tx := make([]byte, spec.txSize)
		rng.Read(tx)
		// Only the drain is the unit, so each one is timed on its own
		// between refills.
		var batch types.Payload
		drains := make([]float64, 100)
		for i := range drains {
			for k := 0; k < perBlock; k++ {
				pool.Submit(tx)
			}
			start := time.Now()
			batch = pool.NextPayload(1)
			drains[i] = float64(time.Since(start).Nanoseconds())
		}
		lt.nextPayloadUs = median(drains) / 1e3
		lt.decodeBatchUs = timeOp(rounds, 50, func() { mempool.DecodeBatch(batch) }) / 1e3
	} else {
		src := mempool.NewSynthetic(spec.blockBytes, seed, false)
		lt.nextPayloadUs = timeOp(rounds, 1000, func() { src.NextPayload(1) }) / 1e3
	}

	if spec.tcp {
		lt.broadcastUs, lt.broadcastCPUUs, err = timeBroadcast(proposal, spec.n-1)
		if err != nil {
			return lt, err
		}
	}
	if spec.wal {
		us, err := timeWALAppend(voteMsg, scratch)
		if err != nil {
			return lt, err
		}
		lt.walAppendUs = us
	}
	return lt, nil
}

// timeBroadcast times Transport.Broadcast of msg to peers loopback sinks
// that drain and decode concurrently. callUs is the caller's median time
// in the call (encode, frame, enqueue); cpuUs is the process's CPU per
// broadcast, socket writes, reads and decodes included.
func timeBroadcast(msg types.Message, peers int) (callUs, cpuUs float64, err error) {
	peerMap := map[types.ReplicaID]string{}
	for i := 0; i < peers; i++ {
		sink, err := tcp.New(tcp.Config{Self: types.ReplicaID(i + 1), ListenAddr: "127.0.0.1:0"})
		if err != nil {
			return 0, 0, fmt.Errorf("tcp sink: %w", err)
		}
		defer sink.Close()
		peerMap[types.ReplicaID(i+1)] = sink.Addr()
		go func() {
			// Ends when Close closes the inbound queue.
			for range sink.Receive() {
			}
		}()
	}
	sender, err := tcp.New(tcp.Config{Self: 0, ListenAddr: "127.0.0.1:0", Peers: peerMap})
	if err != nil {
		return 0, 0, fmt.Errorf("tcp sender: %w", err)
	}
	defer sender.Close()
	// The first broadcast waits out the dial; keep that out of the timing.
	if err := sender.Broadcast(msg); err != nil {
		return 0, 0, fmt.Errorf("tcp broadcast: %w", err)
	}
	time.Sleep(100 * time.Millisecond)
	// Each call is timed on its own; the pause between calls lets the
	// writers drain the per-peer queues so no frame is dropped unsent.
	calls := make([]float64, 100)
	cpu := cpuTime()
	for i := range calls {
		start := time.Now()
		if err := sender.Broadcast(msg); err != nil {
			return 0, 0, fmt.Errorf("tcp broadcast: %w", err)
		}
		calls[i] = float64(time.Since(start).Nanoseconds())
		time.Sleep(time.Millisecond)
	}
	cpu = cpuTime() - cpu
	return median(calls) / 1e3, float64(cpu.Microseconds()) / float64(len(calls)), nil
}

// timeWALAppend times Log.Append of an inbound vote record, the dominant
// journal entry, with the group commit pushed out of the loop.
func timeWALAppend(msg types.Message, scratch string) (float64, error) {
	dir := filepath.Join(scratch, fmt.Sprintf("wal-timing-%d", time.Now().UnixNano()))
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{
		Sync:         wal.SyncPolicy{Interval: time.Hour, Bytes: 1 << 30},
		SegmentBytes: 1 << 30,
	})
	if err != nil {
		return 0, fmt.Errorf("opening a scratch log: %w", err)
	}
	rec := wal.Record{Kind: wal.KindInbound, From: 1, Msg: msg}
	var aerr error
	ns := timeOp(5, 1000, func() {
		if err := log.Append(rec); err != nil {
			aerr = err
		}
	})
	if err := log.Close(); err != nil && aerr == nil {
		aerr = err
	}
	if aerr != nil {
		return 0, fmt.Errorf("scratch log: %w", aerr)
	}
	return ns / 1e3, nil
}

// fill reports the window's runtime costs.
func (c windowCost) fill(v values) {
	v["runtime.cpu_ms_per_round"] = c.cpuMsPerRound
	v["host.verify_us"] = c.hostVerifyUs
	v["runtime.allocs_per_round"] = c.allocsPerRound
	v["runtime.gc_cpu_fraction"] = c.gcCPUFraction
	v["runtime.gc_cycles"] = c.gcCycles
	v["runtime.cpu_util_cores"] = c.cpuCores
	v["runtime.heap_sys_mb"] = c.heapSysMB
}

// hostBoundValues reports the hostBound metrics alone.
func (c windowCost) hostBoundValues() values {
	return values{"runtime.cpu_ms_per_round": c.cpuMsPerRound, "host.verify_us": c.hostVerifyUs}
}

// overheadPct is how much more CPU per round the traced run spent than
// the untraced run of the same workload and seed.
func overheadPct(untraced values, tracedCPUMsPerRound float64) float64 {
	base := untraced["runtime.cpu_ms_per_round"]
	if base <= 0 {
		return 0
	}
	return 100 * (tracedCPUMsPerRound/base - 1)
}

// budget attributes a round's CPU to layers: calls per round times the
// bench-timed unit cost. What the rows do not cover is unattributed.
type budget struct {
	cpuMsPerRound float64
	rows          []budgetRow
}

type budgetRow struct {
	layer         string
	callsPerRound float64
	unitUs        float64
}

func (b *budget) add(layer string, callsPerRound, unitUs float64) {
	b.rows = append(b.rows, budgetRow{layer, callsPerRound, unitUs})
}

func (b *budget) attributedMs() float64 {
	var ms float64
	for _, r := range b.rows {
		ms += r.callsPerRound * r.unitUs / 1e3
	}
	return ms
}

func (b *budget) unattributedPct() float64 {
	if b.cpuMsPerRound <= 0 {
		return 0
	}
	return 100 * (b.cpuMsPerRound - b.attributedMs()) / b.cpuMsPerRound
}

func (b *budget) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "\nbudget %s: CPU per committed round, all replicas\n", workload)
	fmt.Fprintf(w, "  %-24s %14s %12s %12s %7s\n", "layer", "calls/round", "unit us", "ms/round", "share")
	for _, r := range b.rows {
		ms := r.callsPerRound * r.unitUs / 1e3
		fmt.Fprintf(w, "  %-24s %14.2f %12.3f %12.4f %6.1f%%\n",
			r.layer, r.callsPerRound, r.unitUs, ms, 100*ms/b.cpuMsPerRound)
	}
	rest := b.cpuMsPerRound - b.attributedMs()
	fmt.Fprintf(w, "  %-24s %14s %12s %12.4f %6.1f%%\n", "unattributed", "", "", rest, b.unattributedPct())
	fmt.Fprintf(w, "  %-24s %14s %12s %12.4f\n", "cpu_ms_per_round", "", "", b.cpuMsPerRound)
}
