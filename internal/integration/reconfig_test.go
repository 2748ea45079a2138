package integration_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"banyan/internal/byzantine"
	"banyan/internal/core"
	"banyan/internal/crypto"
	"banyan/internal/membership"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wal"
	"banyan/internal/wan"
)

// certLog captures every certificate that crosses the wire — Advance
// notarizations, standalone CertMsgs, and the parent notarizations
// riding proposals — so tests can assert the quorum geometry of each
// epoch: how many signers a cert carries and who they are.
type certLog struct {
	certs []*types.Certificate
}

func (l *certLog) hook() func(types.ReplicaID, time.Time, types.Message) {
	return func(_ types.ReplicaID, _ time.Time, msg types.Message) {
		switch m := msg.(type) {
		case *types.Advance:
			l.certs = append(l.certs, m.Notarization)
		case *types.CertMsg:
			l.certs = append(l.certs, m.Cert)
		case *types.Proposal:
			if m.ParentNotarization != nil {
				l.certs = append(l.certs, m.ParentNotarization)
			}
		}
	}
}

// signerCount returns, per round, the largest signer list observed on any
// certificate for that round.
func (l *certLog) signerCount() map[types.Round]int {
	out := make(map[types.Round]int)
	for _, c := range l.certs {
		if c != nil && len(c.Signers) > out[c.Round] {
			out[c.Round] = len(c.Signers)
		}
	}
	return out
}

// contains reports whether any certificate at round >= from carries id
// among its signers.
func (l *certLog) contains(id types.ReplicaID, from types.Round) bool {
	for _, c := range l.certs {
		if c == nil || c.Round < from {
			continue
		}
		for _, s := range c.Signers {
			if s == id {
				return true
			}
		}
	}
	return false
}

func withReconfig(r *membership.Reconfigurator) func(*core.Config) {
	return func(c *core.Config) { c.Reconfig = r }
}

// historyOf extracts the epoch history from a Banyan engine.
func historyOf(t *testing.T, e protocol.Engine) *membership.History {
	t.Helper()
	eng, ok := e.(*core.Engine)
	if !ok {
		t.Fatalf("engine %T is not a Banyan engine", e)
	}
	return eng.History()
}

// proposeToAll queues the change on every replica's reconfigurator:
// whichever leader proposes first carries it, the rest observe the
// finalized block and clear their slots (duplicate application is a
// deterministic no-op).
func proposeToAll(recfg []*membership.Reconfigurator, c types.ConfigChange) {
	for _, r := range recfg {
		if r != nil {
			r.Propose(c)
		}
	}
}

// TestReconfigAddThenRemove is the tentpole scenario end-to-end in the
// simulator: a 4-replica genesis cluster finalizes a ConfigChange adding
// a 5th replica — which bootstrapped cold through the snapshot path and
// votes from the next epoch — then one removing it again. The cert log
// must show the quorum geometry shifting with the epochs: quorum-3
// certificates before the add, >= 4 signers while the 5th member is in,
// quorum-3 again after the remove.
func TestReconfigAddThenRemove(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	const (
		maxN     = 5
		delta    = 60 * time.Millisecond
		joinAt   = 2 * time.Second
		addAt    = 4 * time.Second
		removeAt = 9 * time.Second
		duration = 16 * time.Second
	)
	joiner := types.ReplicaID(4)

	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), maxN, 42)
	recfg := make([]*membership.Reconfigurator, maxN)
	engines := make([]protocol.Engine, maxN)
	for i := range engines {
		recfg[i] = &membership.Reconfigurator{}
		engines[i] = mkBanyan(t, params, keyring, signers, delta,
			types.ReplicaID(i), window, withReconfig(recfg[i]))
	}

	log := newRoundLog()
	certs := &certLog{}
	hooks := log.hooks()
	hooks.OnBroadcast = certs.hook()

	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(maxN, 20*time.Millisecond),
		Seed:     7,
	}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	// The joiner boots cold against a deep-pruned cluster well before the
	// add is proposed: it must enter through the snapshot path and be
	// caught up by the time its epoch starts.
	net.JoinAt(joiner, joinAt)
	net.At(addAt, func(time.Time) {
		proposeToAll(recfg, types.ConfigChange{
			Op: types.ConfigAdd, Replica: joiner, PubKey: keyring.PublicKey(joiner),
		})
	})
	net.At(removeAt, func(time.Time) {
		proposeToAll(recfg, types.ConfigChange{Op: types.ConfigRemove, Replica: joiner})
	})
	net.Run(duration)

	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	log.checkRoundConsistent(t)

	hist := historyOf(t, net.Engine(0))
	if hist.Len() != 3 {
		t.Fatalf("observer history holds %d sets, want 3 (genesis, +joiner, -joiner)", hist.Len())
	}
	set0, set1, set2 := hist.SetForEpoch(0), hist.SetForEpoch(1), hist.SetForEpoch(2)
	if set1.Size() != 5 || !set1.Contains(joiner) {
		t.Fatalf("epoch 1 set is %v, want 5 members including %d", set1.Members(), joiner)
	}
	if set2.Size() != 4 || set2.Contains(joiner) {
		t.Fatalf("epoch 2 set is %v, want the joiner removed", set2.Members())
	}

	// The acceptance bar: certs before and after the add use different
	// quorums. Epoch 0 (n=4) notarizes at 3 signatures; epoch 1 (n=5)
	// needs 4.
	q0, q1 := set0.Params().NotarizationQuorum(), set1.Params().NotarizationQuorum()
	if q0 == q1 {
		t.Fatalf("epoch quorums did not change: %d vs %d", q0, q1)
	}
	act1, act2 := set1.Activation(), set2.Activation()
	sawEpoch0AtQ0, sawEpoch1 := false, false
	for r, n := range certs.signerCount() {
		switch {
		case r < act1:
			if n == q0 {
				sawEpoch0AtQ0 = true
			}
			if n > set0.Size() {
				t.Errorf("epoch-0 cert at round %d carries %d signers, set has %d members", r, n, set0.Size())
			}
		case r < act2:
			sawEpoch1 = true
			if n < q1 {
				t.Errorf("epoch-1 cert at round %d carries %d signers, quorum is %d", r, n, q1)
			}
		}
	}
	if !sawEpoch0AtQ0 {
		t.Errorf("no epoch-0 certificate observed at the old quorum %d", q0)
	}
	if !sawEpoch1 {
		t.Error("no certificates observed inside epoch 1 — the add never took effect in-run")
	}
	// The joiner is a genuine participant in its epoch: it voted, its
	// signature appears in epoch-1 certs, and it entered via snapshot.
	if !certs.contains(joiner, act1) {
		t.Error("joiner never signed a certificate after its activation")
	}
	m := net.Engine(joiner).Metrics()
	if m["votes_sent"] == 0 {
		t.Error("joiner never voted")
	}
	if m["statesync_fetches"] == 0 {
		t.Error("joiner caught up without a snapshot fetch; the cluster was not window-only")
	}
	if got := m["epoch_changes"]; got != 2 {
		t.Errorf("joiner observed %d epoch changes, want 2", got)
	}
	t.Logf("activations: epoch1@%d epoch2@%d; joiner votes %d, fetches %d, certs seen %d",
		act1, act2, m["votes_sent"], m["statesync_fetches"], len(certs.certs))
}

// TestReconfigJoinDuringChange boots the joiner at the same instant the
// add is proposed: snapshot catch-up races the epoch boundary. The joiner
// must still end up a voting member without tripping safety.
func TestReconfigJoinDuringChange(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	const (
		maxN     = 5
		delta    = 60 * time.Millisecond
		addAt    = 3 * time.Second
		duration = 12 * time.Second
	)
	joiner := types.ReplicaID(4)

	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), maxN, 43)
	recfg := make([]*membership.Reconfigurator, maxN)
	engines := make([]protocol.Engine, maxN)
	for i := range engines {
		recfg[i] = &membership.Reconfigurator{}
		engines[i] = mkBanyan(t, params, keyring, signers, delta,
			types.ReplicaID(i), window, withReconfig(recfg[i]))
	}

	log := newRoundLog()
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(maxN, 20*time.Millisecond),
		Seed:     13,
	}, log.hooks())
	if err != nil {
		t.Fatal(err)
	}
	net.JoinAt(joiner, addAt)
	net.At(addAt, func(time.Time) {
		proposeToAll(recfg, types.ConfigChange{
			Op: types.ConfigAdd, Replica: joiner, PubKey: keyring.PublicKey(joiner),
		})
	})
	net.Run(duration)

	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	log.checkRoundConsistent(t)
	hist := historyOf(t, net.Engine(0))
	if hist.Len() != 2 {
		t.Fatalf("observer history holds %d sets, want 2", hist.Len())
	}
	m := net.Engine(joiner).Metrics()
	if m["votes_sent"] == 0 {
		t.Error("joiner never voted despite joining during the reconfiguration")
	}
	if m["statesync_fetches"] == 0 {
		t.Error("joiner caught up without a snapshot fetch")
	}
}

// TestReconfigRemoveCurrentLeader removes a genesis member and keeps the
// cluster running long enough that every leader slot of the shrunken
// schedule — including the rounds the removed replica would have led —
// rotates through several times. The schedule must close over the gap
// without stalling.
func TestReconfigRemoveCurrentLeader(t *testing.T) {
	params := types.Params{N: 5, F: 1, P: 1}
	const (
		delta    = 60 * time.Millisecond
		removeAt = 3 * time.Second
		duration = 12 * time.Second
	)
	removed := types.ReplicaID(2)

	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 44)
	recfg := make([]*membership.Reconfigurator, params.N)
	engines := make([]protocol.Engine, params.N)
	for i := range engines {
		recfg[i] = &membership.Reconfigurator{}
		engines[i] = mkBanyan(t, params, keyring, signers, delta,
			types.ReplicaID(i), window, withReconfig(recfg[i]))
	}

	log := newRoundLog()
	certs := &certLog{}
	hooks := log.hooks()
	hooks.OnBroadcast = certs.hook()
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(params.N, 20*time.Millisecond),
		Seed:     17,
	}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	net.At(removeAt, func(time.Time) {
		proposeToAll(recfg, types.ConfigChange{Op: types.ConfigRemove, Replica: removed})
	})
	net.Run(duration)

	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	log.checkRoundConsistent(t)
	hist := historyOf(t, net.Engine(0))
	if hist.Len() != 2 {
		t.Fatalf("observer history holds %d sets, want 2", hist.Len())
	}
	next := hist.SetForEpoch(1)
	if next.Contains(removed) {
		t.Fatalf("epoch 1 still contains replica %d", removed)
	}
	act := next.Activation()
	// Liveness across the boundary: with four members each leads every
	// 4th round, so clearing activation by 40+ rounds exercises the
	// removed replica's former leader turns ~10 times over.
	maxRound := func(id types.ReplicaID) types.Round {
		var hi types.Round
		for r := range log.chains[id] {
			if r > hi {
				hi = r
			}
		}
		return hi
	}
	if hi := maxRound(0); hi < act+40 {
		t.Fatalf("only reached round %d after activation %d — schedule stalled on the removed leader's slots", hi, act)
	}
	if certs.contains(removed, act) {
		t.Errorf("a certificate at or after round %d counts removed replica %d", act, removed)
	}
	// The removed replica keeps following the chain as an observer.
	if maxRound(removed) < act {
		t.Errorf("removed replica stopped committing at its own removal")
	}
}

// TestReconfigCrashRestartStraddle crashes a WAL-backed replica before a
// removal finalizes and restarts it after the epoch has turned: replay
// plus live catch-up must land it in the post-change set. A second
// crash-restart then replays a log whose checkpoint was taken after the
// change, proving the journaled validator sets restore the epoch without
// re-deriving it from live traffic.
func TestReconfigCrashRestartStraddle(t *testing.T) {
	params := types.Params{N: 5, F: 1, P: 1}
	const (
		delta      = 60 * time.Millisecond
		crashAt    = 2500 * time.Millisecond
		removeAt   = 3 * time.Second
		restartAt  = 6 * time.Second
		crash2At   = 9 * time.Second
		restart2At = 10 * time.Second
		duration   = 15 * time.Second
	)
	victim := types.ReplicaID(3)
	removed := types.ReplicaID(4)
	dir := filepath.Join(t.TempDir(), "victim")

	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 45)
	recfg := make([]*membership.Reconfigurator, params.N)
	for i := range recfg {
		recfg[i] = &membership.Reconfigurator{}
	}
	// The victim's reconfigurator outlives its engine rebuilds, like the
	// host layers do, so a pending change survives the crash.
	var victimEng *core.Engine
	mkVictim := func() protocol.Engine {
		victimEng = mkBanyan(t, params, keyring, signers, delta, victim, window, withReconfig(recfg[victim]))
		rec, err := wal.NewRecorder(wal.RecorderConfig{
			Dir:             dir,
			Engine:          victimEng,
			CheckpointEvery: 16,
			Options:         wal.Options{Sync: wal.SyncPolicy{EveryRecord: true}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	engines := make([]protocol.Engine, params.N)
	for i := range engines {
		if types.ReplicaID(i) == victim {
			engines[i] = mkVictim()
			continue
		}
		engines[i] = mkBanyan(t, params, keyring, signers, delta,
			types.ReplicaID(i), window, withReconfig(recfg[i]))
	}

	log := newRoundLog()
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(params.N, 20*time.Millisecond),
		Seed:     19,
	}, log.hooks())
	if err != nil {
		t.Fatal(err)
	}
	rebuild := func(time.Time) protocol.Engine {
		if rec, ok := net.Engine(victim).(*wal.Recorder); ok {
			rec.Crash()
		}
		return mkVictim()
	}
	net.CrashAt(victim, crashAt)
	net.At(removeAt, func(time.Time) {
		proposeToAll(recfg, types.ConfigChange{Op: types.ConfigRemove, Replica: removed})
	})
	net.RestartAt(victim, restartAt, rebuild)
	net.CrashAt(victim, crash2At)
	net.RestartAt(victim, restart2At, rebuild)
	net.Run(duration)

	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	log.checkRoundConsistent(t)

	hist := victimEng.History()
	if hist.Len() != 2 {
		t.Fatalf("victim history holds %d sets after straddling restarts, want 2 (metrics: %v)",
			hist.Len(), net.Engine(victim).Metrics())
	}
	if cur := hist.Current(); cur.Contains(removed) {
		t.Fatalf("victim's current set still contains removed replica %d", removed)
	}
	m := net.Engine(victim).Metrics()
	if m["wal_replayed_records"] == 0 {
		t.Error("victim restarted without replaying its WAL — the straddle was not exercised")
	}
	maxRound := func(id types.ReplicaID) types.Round {
		var hi types.Round
		for r := range log.chains[id] {
			if r > hi {
				hi = r
			}
		}
		return hi
	}
	if vic, obs := maxRound(victim), maxRound(0); vic < obs-10 {
		t.Errorf("victim's last commit at round %d lags observer's %d", vic, obs)
	}
	t.Logf("victim: replayed %d records, history len %d, epoch %d",
		m["wal_replayed_records"], hist.Len(), hist.Current().Epoch())
}

// TestReconfigSameSeedEquivalence runs the add-then-remove scenario twice
// per seed under jitter, reordering, and seeded loss: identical seeds
// must yield identical committed chains and identical epoch histories.
// Determinism is what makes every other trial in this battery evidence
// rather than anecdote.
func TestReconfigSameSeedEquivalence(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	const (
		maxN     = 5
		delta    = 60 * time.Millisecond
		addAt    = 2 * time.Second
		removeAt = 6 * time.Second
		duration = 10 * time.Second
	)
	joiner := types.ReplicaID(4)
	trials := propertyTrials(3)

	run := func(t *testing.T, trial int) (map[types.Round]types.BlockID, []*types.ValidatorSetDesc) {
		keyring, signers := crypto.GenerateCluster(crypto.HMAC(), maxN, 42)
		recfg := make([]*membership.Reconfigurator, maxN)
		engines := make([]protocol.Engine, maxN)
		for i := range engines {
			recfg[i] = &membership.Reconfigurator{}
			engines[i] = mkBanyan(t, params, keyring, signers, delta,
				types.ReplicaID(i), window, withReconfig(recfg[i]))
		}
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		log := newRoundLog()
		net, err := simnet.New(engines, simnet.Options{
			Topology:        wan.Uniform(maxN, 15*time.Millisecond),
			Seed:            uint64(200 + trial),
			JitterFrac:      1.5,
			AllowReordering: trial%2 == 0,
			Filter: func(from, to types.ReplicaID, _ types.Message, _ time.Time) bool {
				return rng.Float64() >= 0.05
			},
		}, log.hooks())
		if err != nil {
			t.Fatal(err)
		}
		net.JoinAt(joiner, addAt)
		net.At(addAt, func(time.Time) {
			proposeToAll(recfg, types.ConfigChange{
				Op: types.ConfigAdd, Replica: joiner, PubKey: keyring.PublicKey(joiner),
			})
		})
		net.At(removeAt, func(time.Time) {
			proposeToAll(recfg, types.ConfigChange{Op: types.ConfigRemove, Replica: joiner})
		})
		net.Run(duration)
		if len(log.faults) > 0 {
			t.Fatalf("safety faults: %v", log.faults)
		}
		log.checkRoundConsistent(t)
		return log.chains[0], historyOf(t, net.Engine(0)).Descs()
	}

	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			chainA, descsA := run(t, trial)
			chainB, descsB := run(t, trial)
			if len(chainA) != len(chainB) {
				t.Fatalf("same seed, different chain lengths: %d vs %d", len(chainA), len(chainB))
			}
			for r, id := range chainA {
				if chainB[r] != id {
					t.Fatalf("same seed diverged at round %d: %s vs %s", r, id, chainB[r])
				}
			}
			if len(descsA) != len(descsB) {
				t.Fatalf("same seed, different epoch counts: %d vs %d", len(descsA), len(descsB))
			}
			for i := range descsA {
				if descsA[i].Epoch != descsB[i].Epoch || descsA[i].Activation != descsB[i].Activation {
					t.Fatalf("same seed, epoch %d activated at %d vs %d",
						descsA[i].Epoch, descsA[i].Activation, descsB[i].Activation)
				}
			}
			if len(chainA) < 20 {
				t.Errorf("committed only %d rounds under loss", len(chainA))
			}
		})
	}
}

// TestReconfigEpochStraddler removes a validator that refuses to go: the
// EpochStraddler keeps voting on post-activation proposals with its old
// key. Epoch-pinned verification must keep its signatures out of every
// certificate, and the cluster must not miss a beat.
func TestReconfigEpochStraddler(t *testing.T) {
	params := types.Params{N: 5, F: 1, P: 1}
	const (
		delta    = 60 * time.Millisecond
		removeAt = 3 * time.Second
		duration = 12 * time.Second
	)
	evil := types.ReplicaID(2)

	keyring, signers := crypto.GenerateCluster(crypto.HMAC(), params.N, 46)
	recfg := make([]*membership.Reconfigurator, params.N)
	var adversary *byzantine.EpochStraddler
	engines := make([]protocol.Engine, params.N)
	for i := range engines {
		recfg[i] = &membership.Reconfigurator{}
		eng := mkBanyan(t, params, keyring, signers, delta,
			types.ReplicaID(i), window, withReconfig(recfg[i]))
		if types.ReplicaID(i) == evil {
			adversary = byzantine.NewEpochStraddler(eng, signers[i])
			engines[i] = adversary
			continue
		}
		engines[i] = eng
	}

	log := newRoundLog()
	certs := &certLog{}
	hooks := log.hooks()
	hooks.OnBroadcast = certs.hook()
	hooks.OnFault = func(node types.ReplicaID, _ time.Time, err error) {
		if node != evil {
			t.Errorf("safety fault at honest replica %d: %v", node, err)
		}
	}
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(params.N, 20*time.Millisecond),
		Seed:     23,
	}, hooks)
	if err != nil {
		t.Fatal(err)
	}
	net.At(removeAt, func(time.Time) {
		proposeToAll(recfg, types.ConfigChange{Op: types.ConfigRemove, Replica: evil})
	})
	net.Run(duration)

	log.checkRoundConsistent(t)
	if adversary.ForgedVotes() == 0 {
		t.Fatal("straddler never forged a post-removal vote — the scenario did not engage")
	}
	act := adversary.RemovedAt()
	if act == 0 {
		t.Fatal("straddler never observed its own removal")
	}
	if certs.contains(evil, act) {
		t.Errorf("a certificate at or after activation %d counts the removed straddler", act)
	}
	hist := historyOf(t, net.Engine(0))
	if hist.Current().Contains(evil) {
		t.Fatal("straddler still in the current set")
	}
	maxRound := func(id types.ReplicaID) types.Round {
		var hi types.Round
		for r := range log.chains[id] {
			if r > hi {
				hi = r
			}
		}
		return hi
	}
	if hi := maxRound(0); hi < act+40 {
		t.Errorf("only reached round %d after activation %d — the straddler slowed the cluster", hi, act)
	}
	t.Logf("straddler forged %d votes after activation %d; cluster reached round %d",
		adversary.ForgedVotes(), act, maxRound(0))
}
