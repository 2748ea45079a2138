package protocol

import "banyan/internal/types"

// Snapshot is a compact, replayable summary of an engine's durable state
// at a finalization boundary, produced for WAL checkpointing. It carries
// exactly what a restarted replica cannot re-derive from the cluster:
//
//   - the finalized chain window (the rounds the engine still retains
//     under its pruning policy), which re-anchors the block tree so
//     catch-up continues from it;
//   - the replica's own proposals and votes for every live round, whose
//     replay restores the "I already did this" flags that make a
//     restarted replica unable to equivocate;
//   - the newest finalization certificate, so the replica can serve and
//     follow catch-up immediately.
//
// Everything else (peer votes, notarizations for open rounds) is
// liveness-only state the cluster re-supplies through resends and the
// sync subprotocol.
//
// A Snapshot is not trusted on its own: the WAL recorder replays Own
// through the engine's normal replay path, which re-verifies every
// signature, so a corrupted-but-CRC-valid checkpoint cannot smuggle a
// forged vote into the restored voting record. The chain window is
// held to the same standard — restore re-verifies every block's
// proposer signature and requires a quorum-verified finalization
// certificate covering the window tip before adopting it as finalized
// history.
type Snapshot struct {
	// Round is the engine's current round when the snapshot was taken.
	// Informational: restore re-enters from FinalizedRound+1 and lets
	// live catch-up advance from there.
	Round types.Round
	// FinalizedRound is the finalized height the snapshot captures.
	FinalizedRound types.Round
	// Chain is the finalized block window in ascending round order,
	// contiguous by parent links, ending at FinalizedRound.
	Chain []*types.Block
	// Own holds wire messages to feed back through the engine's replay
	// path: the replica's own proposals and votes for rounds above the
	// chain window's floor, plus the newest finalization certificate.
	Own []types.Message
	// Sets is the validator-set history at checkpoint time (ascending
	// epochs, genesis first). Restore re-verifies the chain structurally
	// and against the configured genesis set before adopting it, so a
	// replica that crashed after an epoch change replays under the
	// post-change set rather than re-deriving epochs from pruned blocks.
	Sets []*types.ValidatorSetDesc
}

// Snapshotter is implemented by engines that can summarize themselves
// into a Snapshot and be rebuilt from one. The WAL recorder uses it to
// checkpoint the log: restart then starts from the snapshot instead of
// the beginning of history, making restart cost independent of uptime.
type Snapshotter interface {
	// Snapshot captures the engine's durable state. Called between
	// ordinary event-loop steps (never during replay).
	Snapshot() *Snapshot
	// RestoreSnapshot seeds a fresh engine from a snapshot. Called in
	// replay mode, after BeginReplay and before any records are fed; the
	// engine must re-verify everything it adopts.
	RestoreSnapshot(s *Snapshot) error
}
