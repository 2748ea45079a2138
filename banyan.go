// Package banyan is the public API of this repository: a Go implementation
// of Banyan — the fast rotating-leader BFT protocol of Vonlanthen,
// Sliwinski, Albarello and Wattenhofer (Middleware 2024) — with an
// in-process cluster runtime, a TCP replica runtime for multi-process
// deployments, and a deterministic WAN simulation harness that regenerates
// the paper's evaluation against the ICC, chained-HotStuff and Streamlet
// baselines.
//
// Quick start (see examples/quickstart for the full program):
//
//	cluster, _ := banyan.NewCluster(banyan.ClusterConfig{N: 4})
//	cluster.Start()
//	cluster.Submit([]byte("tx"))
//	commit := <-cluster.Commits()
//
// Three layers are exposed:
//
//   - Cluster: an n-replica Banyan cluster in one process (channel
//     transport), for applications and tests.
//   - Replica: a single Banyan replica over TCP, for multi-process
//     deployments (cmd/banyan wires it to flags).
//   - RunExperiment: the paper's evaluation harness on a simulated WAN,
//     the only place the baselines run (cmd/bench regenerates every table
//     and figure on the same simulator).
package banyan

import (
	"time"

	"banyan/internal/harness"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Protocol selects the consensus protocol of a simulated experiment
// (ExperimentConfig). Cluster and Replica always run Banyan.
type Protocol = harness.Protocol

// The four protocols of the paper's evaluation. ProtocolBanyanNoFast is
// Banyan with the fast path disabled (cmd/bench's ablation-fastpath).
const (
	ProtocolBanyan       = harness.Banyan
	ProtocolBanyanNoFast = harness.BanyanNoFast
	ProtocolICC          = harness.ICC
	ProtocolHotStuff     = harness.HotStuff
	ProtocolStreamlet    = harness.Streamlet
)

// FinalizationPath says how a block was explicitly finalized.
type FinalizationPath string

// Finalization paths (Definition 6.1 of the paper).
const (
	// PathFast is FP-finalization: n-p fast votes, one round trip.
	PathFast FinalizationPath = "fast"
	// PathSlow is SP-finalization: a quorum of finalization votes.
	PathSlow FinalizationPath = "slow"
	// PathIndirect covers blocks finalized via a received certificate or
	// implicitly as ancestors of an explicitly finalized block.
	PathIndirect FinalizationPath = "indirect"
)

func pathOf(m protocol.FinalizationMode) FinalizationPath {
	switch m {
	case protocol.FinalizeFast:
		return PathFast
	case protocol.FinalizeSlow:
		return PathSlow
	default:
		return PathIndirect
	}
}

// Commit is one finalized block delivered to the application.
type Commit struct {
	// Round is the block's round (chain height).
	Round uint64
	// Epoch is the validator-set epoch the block was certified under.
	Epoch uint32
	// BlockID is the hex-prefixed block identifier.
	BlockID string
	// Proposer is the replica that proposed the block.
	Proposer int
	// Transactions are the decoded client transactions (empty for payload
	// workloads that are not transaction batches).
	Transactions [][]byte
	// PayloadBytes is the total payload size.
	PayloadBytes int
	// Path says how the finalization was reached.
	Path FinalizationPath
	// At is the local time the hosting replica finalized the block.
	At time.Time
}

// Params validates and normalizes (n, f, p) for a protocol: Banyan
// enforces n >= max(3f+2p-1, 3f+1) with 1 <= p <= f; the baselines
// enforce n >= 3f+1.
func Params(proto Protocol, n, f, p int) (types.Params, error) {
	return harness.Params(proto, n, f, p)
}

// DefaultParams picks the largest tolerable f for n replicas: for Banyan
// the largest f compatible with the given p; for baselines f = (n-1)/3.
func DefaultParams(proto Protocol, n, p int) (types.Params, error) {
	return harness.DefaultParams(proto, n, p)
}
