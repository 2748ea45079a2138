package wal

import (
	"fmt"
	"math"
	"time"

	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Engine is the engine a Recorder wraps: a protocol.Engine that can
// restore its voting record from its journal. The Recorder brackets a
// restart with BeginReplay/EndReplay, restores a checkpoint through
// RestoreSnapshot, and hands the replica's own journaled messages to
// ReplayOwn so the engine restores its voting record (which blocks it
// proposed, notarize-voted, fast-voted and finalize-voted for) without
// signing anything new. Between the brackets the engine must not create
// signatures — re-deciding a vote with post-crash timing is how a
// restarted replica equivocates. The Banyan core engine implements it.
type Engine interface {
	protocol.Engine
	protocol.Snapshotter
	// BeginReplay enters replay mode before Start is called.
	BeginReplay()
	// ReplayOwn ingests a message this replica itself sent pre-crash.
	ReplayOwn(msg types.Message, now time.Time) []protocol.Action
	// EndReplay leaves replay mode, re-arms timers for the recovered
	// round, and returns the actions to resume live operation with.
	EndReplay(now time.Time) []protocol.Action
}

// RecorderConfig assembles a Recorder.
type RecorderConfig struct {
	// Dir is the log directory (one per replica).
	Dir string
	// Engine is the wrapped consensus engine. Required. A non-empty log is
	// replayed into it on Start.
	Engine Engine
	// Options tune the log (sync policy, segment size); Sync.Bytes is
	// ignored, since the recorder syncs once per action batch.
	Options Options
	// CheckpointEvery, when positive, checkpoints the log each time the
	// finalized round advances by that many rounds: the engine's
	// protocol.Snapshot is journaled, the log rotates, and the segments
	// behind the checkpoint are deleted, bounding restart replay and disk
	// usage by the checkpoint window instead of uptime. Zero disables
	// checkpointing; existing checkpoints in the log are still honored on
	// recovery.
	CheckpointEvery types.Round
}

// Recorder wraps a protocol.Engine with a write-ahead log. It is itself
// a protocol.Engine, so every host (node runtime, simulator) can run a
// durable replica without knowing about the WAL. It journals only what
// this replica alone knows: the messages that carry its own signature —
// its proposals and votes — before the host's transport sends them, plus
// checkpoints. Everything else a restarted replica needs (blocks, other
// replicas' votes, certificates) its peers still hold and hand back
// through catch-up.
type Recorder struct {
	eng Engine
	log *Log
	rec *Recovery

	// Checkpoint cadence: every checkpointEvery finalized rounds past
	// lastCheckpoint (0 = disabled).
	checkpointEvery types.Round
	lastCheckpoint  types.Round

	replayedRecords int64
	replayedCommits int64
	replaySkipped   int64
	walErrs         int64
	suppressed      int64
}

var _ protocol.Engine = (*Recorder)(nil)

// NewRecorder opens (or reopens) the log and wraps the engine. Recovery
// happens on Start. The log never syncs on size: the batch Sync in record
// is the one durability point of an action batch, so an own proposal,
// however large, shares its fsync with the vote beside it.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	opts := cfg.Options
	opts.Sync.Bytes = math.MaxInt
	log, rec, err := Open(cfg.Dir, opts)
	if err != nil {
		return nil, err
	}
	return &Recorder{eng: cfg.Engine, log: log, rec: rec,
		checkpointEvery: cfg.CheckpointEvery,
		replaySkipped:   int64(rec.Skipped),
	}, nil
}

// Recovered reports what Open found on disk (records are released after
// Start consumes them).
func (r *Recorder) Recovered() Recovery { return *r.rec }

// Log exposes the underlying log (for Sync in tests and benchmarks).
func (r *Recorder) Log() *Log { return r.log }

// ID implements protocol.Engine.
func (r *Recorder) ID() types.ReplicaID { return r.eng.ID() }

// Protocol implements protocol.Engine.
func (r *Recorder) Protocol() string { return r.eng.Protocol() }

// Start implements protocol.Engine. With an empty log it is a plain
// recorded Start. Otherwise it restores: the newest checkpoint's snapshot
// re-anchors the block tree and its own-message bundle restores the
// pre-checkpoint voting record, then the own records journaled after it
// restore the rest — all through ReplayOwn, so every signature
// re-verifies. Rounds above the checkpoint come back live, through
// catch-up, and their commits reach the host as it lands them. An
// inbound record, which logs written before the journal narrowed to own
// signatures hold, is skipped: the cluster re-supplies what it taught.
func (r *Recorder) Start(now time.Time) []protocol.Action {
	records := r.rec.Records
	r.rec.Records = nil
	if len(records) == 0 {
		return r.record(r.eng.Start(now))
	}
	r.eng.BeginReplay()
	acts := keepReplayActions(nil, r.eng.Start(now))
	if records[0].Kind == KindCheckpoint {
		snap := records[0].Snapshot
		if err := r.eng.RestoreSnapshot(snap); err != nil {
			// A checkpoint that does not restore is local state corruption
			// beyond repair-by-replay (the summarized records are gone);
			// halting beats rejoining with a hole in the voting record.
			return append(acts, protocol.SafetyFault{
				Err: fmt.Errorf("wal: checkpoint restore failed: %w", err),
			})
		}
		for _, m := range snap.Own {
			acts = keepReplayActions(acts, r.eng.ReplayOwn(m, now))
		}
		r.lastCheckpoint = snap.FinalizedRound
		r.replayedRecords++
		records = records[1:]
	}
	for _, rec := range records {
		switch rec.Kind {
		case KindOwn:
			acts = keepReplayActions(acts, r.eng.ReplayOwn(rec.Msg, now))
		case KindInbound:
			r.replaySkipped++
			continue
		}
		r.replayedRecords++
	}
	for _, a := range acts {
		if c, ok := a.(protocol.Commit); ok {
			r.replayedCommits += int64(len(c.Blocks))
		}
	}
	return append(acts, r.record(r.eng.EndReplay(now))...)
}

// keepReplayActions filters actions produced during replay: commits are
// re-delivered to the application (which also lost its state), safety
// faults surface, and everything else — sends the cluster has long seen,
// timers for rounds long past — is dropped. Nothing is re-journaled.
func keepReplayActions(acts, produced []protocol.Action) []protocol.Action {
	for _, a := range produced {
		switch a.(type) {
		case protocol.Commit, protocol.SafetyFault:
			acts = append(acts, a)
		}
	}
	return acts
}

// HandleMessage implements protocol.Engine: transition, then journal the
// outputs.
func (r *Recorder) HandleMessage(from types.ReplicaID, msg types.Message, now time.Time) []protocol.Action {
	return r.record(r.eng.HandleMessage(from, msg, now))
}

// HandleTimer implements protocol.Engine.
func (r *Recorder) HandleTimer(id protocol.TimerID, now time.Time) []protocol.Action {
	return r.record(r.eng.HandleTimer(id, now))
}

// Metrics implements protocol.Engine, adding the WAL's counters to the
// engine's.
func (r *Recorder) Metrics() map[string]int64 {
	m := r.eng.Metrics()
	if m == nil {
		m = make(map[string]int64)
	}
	appends, syncs := r.log.Stats()
	checkpoints, segsRemoved := r.log.CheckpointStats()
	m["wal_appends"] = appends
	m["wal_syncs"] = syncs
	m["wal_replayed_records"] = r.replayedRecords
	m["wal_replayed_blocks"] = r.replayedCommits
	m["wal_replay_skipped"] = r.replaySkipped
	m["wal_errors"] = r.walErrs
	m["wal_suppressed_sends"] = r.suppressed
	m["wal_checkpoints"] = checkpoints
	m["wal_segments_removed"] = segsRemoved
	return m
}

// Sync forces the buffered group to disk.
func (r *Recorder) Sync() error { return r.log.Sync() }

// Close flushes and closes the log (graceful shutdown).
func (r *Recorder) Close() error { return r.log.Close() }

// Crash abandons the unsynced tail and closes the log (simulated crash).
func (r *Recorder) Crash() { r.log.Crash() }

// record journals the engine's outputs: own-signature messages before
// the host sends them (the node applies actions after this returns, and
// the group is forced to disk before any of them is released, the
// classic force-log-before-externalize rule). Commits are not journaled;
// the highest committed round only drives the checkpoint cadence. If an
// own record cannot be made durable — the append or the forced sync
// fails — the own-signature messages of the batch are dropped from the
// returned actions: a vote the journal never saw must not reach the
// network, or a restart could re-decide it differently and equivocate.
// Going silent is ordinary crash-fault behavior the protocol tolerates;
// the error still surfaces through Err and the wal_errors metric.
func (r *Recorder) record(acts []protocol.Action) []protocol.Action {
	ownAppended, ownDurable := false, true
	var commitTip types.Round
	for _, a := range acts {
		switch act := a.(type) {
		case protocol.Broadcast:
			if loggedOwn(act.Msg) {
				ownDurable = r.appendOwn(act.Msg) && ownDurable
				ownAppended = true
			}
		case protocol.Send:
			if loggedOwn(act.Msg) {
				ownDurable = r.appendOwn(act.Msg) && ownDurable
				ownAppended = true
			}
		case protocol.Commit:
			if len(act.Blocks) > 0 {
				commitTip = max(commitTip, act.Blocks[len(act.Blocks)-1].Round)
			}
		}
	}
	if ownAppended && !r.log.opts.Sync.EveryRecord {
		// One fsync covers every own record of this action batch plus the
		// whole pending group.
		if err := r.log.Sync(); err != nil {
			r.walErrs++
			ownDurable = false
		}
	}
	if r.checkpointEvery > 0 && commitTip >= r.lastCheckpoint+r.checkpointEvery {
		r.checkpoint()
	}
	if ownAppended && !ownDurable {
		return r.suppressOwn(acts)
	}
	return acts
}

// checkpoint snapshots the engine and journals it, truncating the log
// behind the checkpoint. Failures are counted but non-fatal: a missed
// checkpoint only means the next restart replays more own records (the
// ordinary append path still provides durability), and if the log is
// truly dying its sticky error fails the own-record path anyway.
func (r *Recorder) checkpoint() {
	snap := r.eng.Snapshot()
	if err := r.log.AppendCheckpoint(Record{Kind: KindCheckpoint, Round: snap.FinalizedRound, Snapshot: snap}); err != nil {
		r.walErrs++
		return
	}
	r.lastCheckpoint = snap.FinalizedRound
}

// appendOwn journals one of the replica's own messages. The log encodes
// it into its pooled record buffer; nothing is memoized on the message,
// whose large fields the TCP transport then sends by reference.
func (r *Recorder) appendOwn(msg types.Message) bool {
	return r.append(Record{Kind: KindOwn, Msg: msg})
}

// suppressOwn strips own-signature sends from an action batch whose
// journal write failed; everything else (commits, timers) still reaches
// the host.
func (r *Recorder) suppressOwn(acts []protocol.Action) []protocol.Action {
	kept := make([]protocol.Action, 0, len(acts))
	for _, a := range acts {
		switch act := a.(type) {
		case protocol.Broadcast:
			if loggedOwn(act.Msg) {
				r.suppressed++
				continue
			}
		case protocol.Send:
			if loggedOwn(act.Msg) {
				r.suppressed++
				continue
			}
		}
		kept = append(kept, a)
	}
	return kept
}

// append journals one record, reporting whether it is (or will be, under
// the group-commit window) durable. Errors are counted and left sticky
// in the log; record() decides whether the batch may still externalize.
func (r *Recorder) append(rec Record) bool {
	if err := r.log.Append(rec); err != nil {
		r.walErrs++
		return false
	}
	return true
}

// Err returns the log's sticky I/O error, if any.
func (r *Recorder) Err() error {
	r.log.mu.Lock()
	defer r.log.mu.Unlock()
	return r.log.err
}

// loggedOwn says which of the replica's own messages are journaled: the
// ones that carry its signature, its proposals and its votes. Relays are
// someone else's block; certificates and Advances hold other replicas'
// votes, which the cluster re-supplies; sync, snapshot, pull and batch
// traffic is stateless or derived.
func loggedOwn(msg types.Message) bool {
	switch m := msg.(type) {
	case *types.Proposal:
		return !m.Relayed
	case *types.VoteMsg:
		return true
	default:
		return false
	}
}
