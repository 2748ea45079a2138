// Package core implements the Banyan consensus engine — the paper's
// primary contribution (sections 6–8, Algorithms 1 and 2).
//
// Banyan extends the Internet Computer Consensus protocol with an
// integrated fast path: as its first notarization vote of a round, every
// replica broadcasts a *fast vote* (one signature serves as both; see
// roundState.recordVote); a rank-0 block that collects
// n−p fast votes is FP-finalized after a single round trip (Addition 4),
// while the unmodified ICC slow path (notarization, then finalization
// votes) runs concurrently and finalizes in three steps whenever the fast
// path does not fire. Safety of the combination rests on the *unlock* rule
// (Definition 7.6): blocks may only be extended — or voted for — once
// enough fast votes prove that no conflicting block can have been
// FP-finalized.
//
// The engine is a deterministic state machine per the protocol package
// contract; all Algorithm 1/2 line references appear next to the code that
// implements them.
//
// Which payload a proposal carries was always the proposer's choice. With
// Config.Dissem the payload is a list of batch digests, and any leader
// proposes every batch its store holds that the proposal's parent chain
// does not reference yet, whoever cut it; a batch stays proposable until
// a finalized block references it, and delivery skips a ref the finalized
// chain already delivered (dissem.go).
package core

import (
	"errors"
	"fmt"
	"time"

	"banyan/internal/crypto"
	"banyan/internal/dissem"
	"banyan/internal/membership"
	"banyan/internal/obs"
	"banyan/internal/protocol"
	"banyan/internal/types"
)

// Config assembles everything a Banyan engine instance needs.
type Config struct {
	// Params are the fault-model parameters (n, f, p) of the *genesis*
	// validator set. They must satisfy n >= max(3f+2p-1, 3f+1), p in [1, f].
	// Reconfiguration carries f and p forward unchanged; n tracks the
	// epoch's member count.
	Params types.Params
	// Self is this replica's ID.
	Self types.ReplicaID
	// Keyring is the identity registry: every replica's public key, keyed
	// by ID. It may hold more keys than the genesis set has members —
	// hosts that plan to add validators at runtime pre-register the keys
	// of every identity the deployment may ever admit, so joiners can
	// speak (state sync, batch fetch) before their first epoch as voters.
	Keyring *crypto.Keyring
	// Reconfig, when set, is the host's hand-off slot for validator-set
	// changes: the engine attaches the pending change to its next
	// proposal and clears the slot when it observes the change finalized.
	Reconfig *membership.Reconfigurator
	// Verifier is the batched, cached signature-verification pipeline the
	// engine routes all VerifyVote/VerifyCert/VerifyUnlockProof/VerifyBlock
	// checks through. Nil builds one over Keyring with the default pool
	// and cache.
	Verifier *crypto.Verifier
	// Signer signs this replica's blocks and votes.
	Signer *crypto.Signer
	// Payloads supplies block payloads when this replica proposes
	// (Dissem replaces it).
	Payloads protocol.PayloadSource
	// Delta is the message-delay bound Δ. Proposal and notarization delays
	// are Δ_prop(r) = Δ_notary(r) = 2Δ·r (paper section 4). Deployments set
	// it above the delay observed without disruptions (section 9.2).
	Delta time.Duration
	// DisableFastPath turns off fast votes and the unlock machinery,
	// reducing the engine to ICC behaviour with Banyan quorums. Used by the
	// fast-path ablation benchmarks.
	DisableFastPath bool
	// DisableForwarding turns off the tip-forwarding relay of Algorithm 1
	// line 35 (the Bamboo fix of paper section 9.1) — the header relay a
	// replica broadcasts when it votes for someone else's block. Body
	// pulls are still made and answered. Used by the forwarding ablation
	// benchmark.
	DisableForwarding bool
	// OptimisticProposals enables Moonshot-style proposal pipelining: when
	// this replica holds rank 0 for the next round, it signs and broadcasts
	// its proposal on the *expected* parent (the current round's unique
	// rank-0 block) as soon as that block arrives, instead of waiting for
	// the round's certificate. The optimistic broadcast carries no fast
	// vote and no parent credentials, so no replica can vote for it until
	// the leader confirms it with its (single, per-round) fast vote; if the
	// certified parent differs, the proposal is withdrawn — never
	// fast-voted, hence permanently invalid everywhere — and the leader
	// proposes on the real parent. Requires the fast path: the rank-0
	// validity rule (proposer fast vote present) is what keeps a withdrawn
	// proposal inert. The knob must be kept stable across restarts of a
	// WAL-backed replica, as replay classifies journaled proposals with it.
	OptimisticProposals bool
	// PruneKeep is how many rounds below the finalized height are retained,
	// and the pruning cadence: every PruneKeep finalized rounds the state
	// below fin − PruneKeep is dropped, so between PruneKeep and
	// 2×PruneKeep rounds stay held. Zero selects the default.
	PruneKeep types.Round
	// DeepPrune additionally evicts finalized block bodies below the prune
	// floor (Tree.PruneDeep), bounding memory by the window size instead of
	// chain length. A deep-pruned replica cannot serve chain-suffix sync
	// below its window; peers that far behind recover via snapshot state
	// sync, which this option therefore depends on for cluster liveness.
	DeepPrune bool
	// Dissem, when set, decouples payload dissemination from ordering: the
	// store replaces Payloads (proposals commit batch digests instead of
	// bytes: any origin's held batches that the proposal's parent chain
	// does not reference yet), batch bodies are broadcast off the
	// consensus path as BatchAnnounce messages, and *delivery* of
	// finalized blocks — never voting or finalization — is gated on body
	// availability, with fetch-on-miss against the block's proposer. The
	// same store instance must be shared with the host, which resolves
	// committed digest lists back to transaction bytes.
	Dissem *dissem.Store
	// Obs, when set, is the replica's observability bundle: the engine
	// records commit-latency/delivery-wait/verify histograms, lifecycle
	// trace events, round/epoch gauges, and feeds the slow-round
	// detector. Nil (the default) keeps every hot path free of
	// observability work behind a single branch.
	Obs *obs.Observer
}

const (
	defaultPruneKeep = 16
	// stateSyncStalls is how many peers a suffix segment is asked of in
	// vain before catch-up gives up on it (syncExpired): at the first
	// missing round (an unserveable prefix: no peer holds it) it escalates
	// to a snapshot fetch, above it sync restarts from the finalized
	// prefix.
	stateSyncStalls = 3
)

func (c *Config) validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.Params.P < 1 && !c.DisableFastPath {
		return fmt.Errorf("core: fast path requires p >= 1, got %d", c.Params.P)
	}
	if c.OptimisticProposals && c.DisableFastPath {
		return errors.New("core: OptimisticProposals requires the fast path " +
			"(withdrawn proposals stay inert only under the rank-0 fast-vote validity rule)")
	}
	if c.Keyring == nil || c.Signer == nil {
		return errors.New("core: keyring and signer are required")
	}
	if int(c.Self) >= c.Keyring.N() {
		return fmt.Errorf("core: self id %d not in the key registry (%d identities)", c.Self, c.Keyring.N())
	}
	if c.Delta <= 0 {
		return errors.New("core: Delta must be positive")
	}
	if c.Verifier == nil {
		c.Verifier = crypto.NewVerifier(c.Keyring)
	}
	if c.Payloads == nil {
		c.Payloads = protocol.EmptyPayloads
	}
	if c.PruneKeep == 0 {
		c.PruneKeep = defaultPruneKeep
	}
	return nil
}

// genesisHistory builds the epoch sequence an engine starts from: a single
// epoch of members 0..n-1 with the keys the keyring holds for them.
// Reconfiguration grows it from there.
func (c *Config) genesisHistory() (*membership.History, error) {
	genesis, err := membership.Genesis(c.Keyring, c.Params)
	if err != nil {
		return nil, fmt.Errorf("core: building genesis validator set: %w", err)
	}
	return membership.NewHistory(genesis)
}
