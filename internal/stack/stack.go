// Package stack assembles one Banyan replica. The three hosts of this
// repository — the in-process Cluster, the TCP Replica and the simulation
// harness — differ in transport and clock only; the pipeline behind them
// (verifier → dissemination store → engine → WAL recorder), the defaults
// of its knobs and the rules for which knobs go together live here, once.
// A host maps its public configuration to Options, fills them, provisions
// each replica's Survivors and calls Build — again after a crash, with the
// same Survivors, which is all a restart is. The paper's baselines are not
// built here: they run only in simulation, and internal/harness builds
// them.
package stack

import (
	"fmt"
	"path/filepath"
	"time"

	"banyan/internal/core"
	"banyan/internal/crypto"
	"banyan/internal/dissem"
	"banyan/internal/membership"
	"banyan/internal/mempool"
	"banyan/internal/metrics"
	"banyan/internal/obs"
	"banyan/internal/protocol"
	"banyan/internal/types"
	"banyan/internal/wal"
)

// Options are the knobs every host shares. The zero value of a field
// selects its default (Fill); Delta, Scheme and the payload source have
// per-host defaults and are the host's to set. The verification pipeline
// has no knob: it checks each signature inline, once, against the keyring.
type Options struct {
	// N, F, P are the genesis fault parameters, which must satisfy
	// n >= max(3f+2p-1, 3f+1): F = 0 picks the maximum for N and P, P = 0
	// picks 1.
	N, F, P int
	// MaxN is the number of identities provisioned with keys; zero means
	// N. Identities in [N, MaxN) join by reconfiguration.
	MaxN int
	// Delta is the message-delay bound Δ. Required.
	Delta time.Duration
	// DisableFastPath runs the engine without fast votes
	// (core.Config.DisableFastPath): the fast-path ablation, which only the
	// simulation harness asks for.
	DisableFastPath bool
	// BlockBytes caps one proposal's payload (0 = 1 MiB).
	BlockBytes int
	// Scheme and Seed derive the shared demo PKI (Keys).
	Scheme string
	Seed   uint64
	// NoForwarding disables the line-35 relay.
	NoForwarding bool
	// DeepPrune and PruneKeep are the core.Config fields of the same names.
	DeepPrune bool
	PruneKeep types.Round
	// Dissem routes payloads through the dissemination layer;
	// DissemBatchBytes is the batch cut size (0 = 64 KiB).
	Dissem           bool
	DissemBatchBytes int
	// WALDir, when non-empty, runs every replica behind a write-ahead
	// log, checkpointed every PruneKeep finalized rounds.
	WALDir string
	// Obs gives every replica an obs.Observer with a tracer ring of
	// ObsTraceEvents events (0 = obs.DefaultTraceEvents).
	Obs            bool
	ObsTraceEvents int
}

// Fill validates the options and returns them with every defaulted field
// resolved — the one copy of both. Fill is idempotent.
func (o Options) Fill() (Options, error) {
	if o.N <= 0 {
		return o, fmt.Errorf("banyan: need N > 0")
	}
	if o.P == 0 {
		o.P = 1
	}
	params := types.Params{N: o.N, F: o.F, P: o.P}
	var err error
	if o.F == 0 {
		params, err = types.BanyanParams(o.N, max(o.P, 1))
	} else {
		err = params.Validate()
	}
	if err != nil {
		return o, err
	}
	o.N, o.F, o.P = params.N, params.F, params.P
	if o.MaxN == 0 {
		o.MaxN = o.N
	}
	if o.MaxN < o.N {
		return o, fmt.Errorf("banyan: MaxN %d below N %d", o.MaxN, o.N)
	}
	if o.Delta <= 0 {
		return o, fmt.Errorf("banyan: Delta must be positive")
	}
	if o.BlockBytes <= 0 {
		o.BlockBytes = 1 << 20
	}
	if o.DissemBatchBytes <= 0 {
		o.DissemBatchBytes = 64 << 10
	}
	return o, nil
}

// Params returns the fault parameters of filled options.
func (o Options) Params() types.Params { return types.Params{N: o.N, F: o.F, P: o.P} }

// Keys derives the deployment's demo PKI: one keyring holding all MaxN
// public keys and one signer per identity.
func (o Options) Keys() (*crypto.Keyring, []*crypto.Signer, error) {
	scheme, err := crypto.SchemeByName(o.Scheme)
	if err != nil {
		return nil, nil, err
	}
	keyring, signers := crypto.GenerateCluster(scheme, o.MaxN, o.Seed)
	return keyring, signers, nil
}

// NewPool builds a replica's transaction mempool. Under Dissem the batch
// size caps individual transactions (oversize is a typed Submit rejection,
// never truncation) and submitters shard, so one heavy client cannot
// starve the rest of a batch.
func (o Options) NewPool() *mempool.Pool {
	if o.Dissem {
		return mempool.NewShardedPool(0, o.DissemBatchBytes, o.N)
	}
	return mempool.NewPool(0, o.BlockBytes)
}

// ReplicaWALDir is replica i's log directory under a WALDir shared by
// several replicas ("" without one).
func (o Options) ReplicaWALDir(i types.ReplicaID) string {
	if o.WALDir == "" {
		return ""
	}
	return filepath.Join(o.WALDir, fmt.Sprintf("replica-%d", i))
}

// Source supplies a replica's payloads: whole blocks inline, batch cuts
// under Dissem. mempool.Pool and mempool.Synthetic implement it.
type Source interface {
	protocol.PayloadSource
	dissem.Source
}

// Survivors is the part of a replica that outlives an engine rebuild: its
// identity, its payload source, its log directory, and the two hand-off
// slots whose contents must span a crash — a pending validator-set change
// and the observability instruments.
type Survivors struct {
	Keyring  *crypto.Keyring
	Signer   *crypto.Signer
	Payloads Source
	// WALDir is this replica's own log directory; empty runs without one.
	WALDir   string
	Reconfig *membership.Reconfigurator
	// Obs is nil without Options.Obs.
	Obs *obs.Observer
}

// NewSurvivors provisions a replica's survivors from filled options. reg,
// when non-nil, is the registry the observer registers its instruments in.
func (o Options) NewSurvivors(keyring *crypto.Keyring, signer *crypto.Signer,
	payloads Source, walDir string, reg *metrics.Registry) Survivors {
	s := Survivors{Keyring: keyring, Signer: signer, Payloads: payloads, WALDir: walDir,
		Reconfig: &membership.Reconfigurator{}}
	if o.Obs {
		s.Obs = obs.New(obs.Options{Registry: reg, TraceEvents: o.ObsTraceEvents})
	}
	return s
}

// Stack is one replica's assembled pipeline.
type Stack struct {
	// Hosted is the engine the host drives: Recorder when there is one,
	// Engine otherwise.
	Hosted protocol.Engine
	// Engine is the bare consensus engine.
	Engine *core.Engine
	// Verifier is the engine's verification pipeline; the host reads its
	// count of signatures verified for the metrics page.
	Verifier *crypto.Verifier
	// Store is nil without Dissem. It is fresh per build: batch bodies are
	// not journaled, so a restarted replica refetches any finalized body
	// it is missing — the ack quorum guarantees f+1 other holders.
	Store *dissem.Store
	// Recorder is nil without a log directory.
	Recorder *wal.Recorder
}

// Build assembles replica self from filled options and its survivors.
func Build(self types.ReplicaID, o Options, s Survivors) (*Stack, error) {
	st := &Stack{Verifier: crypto.NewVerifier(s.Keyring)}
	if o.Dissem {
		st.Store = dissem.NewStore(dissem.Config{
			Self:       self,
			N:          o.N,
			BatchBytes: o.DissemBatchBytes,
			BlockBytes: o.BlockBytes,
			Source:     s.Payloads,
		})
	}
	eng, err := core.New(core.Config{
		Params:            o.Params(),
		Self:              self,
		Keyring:           s.Keyring,
		Verifier:          st.Verifier,
		Signer:            s.Signer,
		Payloads:          s.Payloads,
		Delta:             o.Delta,
		Reconfig:          s.Reconfig,
		DisableFastPath:   o.DisableFastPath,
		DisableForwarding: o.NoForwarding,
		DeepPrune:         o.DeepPrune,
		PruneKeep:         o.PruneKeep,
		Dissem:            st.Store,
		Obs:               s.Obs,
	})
	if err != nil {
		return nil, err
	}
	st.Engine, st.Hosted = eng, eng
	if s.WALDir == "" {
		return st, nil
	}
	var walOpts wal.Options
	if s.Obs != nil {
		walOpts.FlushHist = s.Obs.WALFlush
	}
	st.Recorder, err = wal.NewRecorder(wal.RecorderConfig{
		Dir:     s.WALDir,
		Engine:  eng,
		Options: walOpts,
		// The checkpoint window is the engine's retention window: a
		// restart restores no more than the engine would still hold.
		CheckpointEvery: eng.PruneKeep(),
	})
	if err != nil {
		return nil, err
	}
	st.Hosted = st.Recorder
	return st, nil
}
