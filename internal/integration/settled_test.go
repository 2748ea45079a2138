package integration_test

import (
	"testing"
	"time"

	"banyan/internal/byzantine"
	"banyan/internal/crypto"
	"banyan/internal/protocol"
	"banyan/internal/simnet"
	"banyan/internal/types"
	"banyan/internal/wan"
)

// Whole-cluster checks for settled rounds: traffic for a round a replica
// has finalized and left is free to reject, a replica that never sees a
// finalization certificate loses nothing by its peers no longer sending
// finalization votes for fast-path rounds, and one that never sees a vote
// loses nothing by their no longer sending Advances for them.

// TestSettledFlooderCostsVictimNothing (n=7): one replica sprays another
// with garbage-signed votes, certificates and unlock proofs for rounds
// the cluster finalized two rounds ago. Against a same-seed run without
// the flood, the victim verifies exactly the same signatures — not one
// curve operation more — rejects nothing extra, counts every sprayed item as settled_dropped, and every
// replica finalizes the same block at every round. This is the bounded-
// ingress property for the vote/certificate queue: what a Byzantine peer
// sends for old rounds costs a round comparison per item.
func TestSettledFlooderCostsVictimNothing(t *testing.T) {
	params := types.Params{N: 7, F: 2, P: 1}
	const victim, evil = types.ReplicaID(0), types.ReplicaID(6)
	run := func(flood bool) (*roundLog, map[string]int64, *byzantine.SettledFlooder) {
		t.Helper()
		var flooder *byzantine.SettledFlooder
		engines := buildCluster(t, params, "banyan",
			func(id types.ReplicaID, eng protocol.Engine, _ *crypto.Signer) protocol.Engine {
				if flood && id == evil {
					flooder = byzantine.NewSettledFlooder(eng, victim, params.N)
					return flooder
				}
				return eng
			})
		log := newRoundLog()
		net, err := simnet.New(engines, simnet.Options{
			Topology: wan.Uniform(params.N, 10*time.Millisecond),
			Seed:     23,
		}, log.hooks())
		if err != nil {
			t.Fatal(err)
		}
		net.Run(4 * time.Second)
		if len(log.faults) > 0 {
			t.Fatalf("safety faults (flood=%v): %v", flood, log.faults)
		}
		log.checkRoundConsistent(t)
		return log, engines[victim].Metrics(), flooder
	}
	quietLog, quiet, _ := run(false)
	loudLog, loud, flooder := run(true)

	rounds := len(quietLog.chains[victim])
	if rounds < 100 || flooder.Items() < int64(rounds-5)*flooder.BurstItems() {
		t.Fatalf("run too short: %d rounds, %d items sprayed", rounds, flooder.Items())
	}
	for id := types.ReplicaID(0); int(id) < params.N; id++ {
		q, l := quietLog.chains[id], loudLog.chains[id]
		if len(q) != len(l) {
			t.Errorf("replica %d finalized %d rounds unflooded, %d flooded", id, len(q), len(l))
		}
		for r, want := range q {
			if got := l[r]; got != want {
				t.Fatalf("replica %d round %d: %s unflooded, %s flooded", id, r, want, got)
			}
		}
	}
	for _, key := range []string{"sigs_verified", "rejected"} {
		if loud[key] != quiet[key] {
			t.Errorf("victim %s: %d under flood, %d without — the flood was looked at", key, loud[key], quiet[key])
		}
	}
	// Everything sprayed was dropped as settled, bar a last burst still on
	// the wire when the run ended.
	dropped := loud["settled_dropped"] - quiet["settled_dropped"]
	if dropped > flooder.Items() || dropped < flooder.Items()-flooder.BurstItems() {
		t.Errorf("settled_dropped grew by %d under a flood of %d items", dropped, flooder.Items())
	}
	t.Logf("%d rounds, %d garbage items dropped unread, victim verifications %d in both runs",
		rounds, dropped, loud["sigs_verified"])
}

// TestCertStarvedReplicaStillFinalizes (n=4): every CertMsg addressed to
// one replica is lost. On the fast path its peers send it no finalization
// votes any more — their certificates stand in for them — so the starved
// replica can finalize a round only from the fast votes it collects
// itself, or indirectly through a later round. It must finalize every
// round the others do, with the same blocks, and never fall back on
// resends.
func TestCertStarvedReplicaStillFinalizes(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	const starved = types.ReplicaID(3)
	engines := makeRelayEngines(t, params, false, nil)
	log := newRoundLog()
	var lost int
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(params.N, 10*time.Millisecond),
		Seed:     31,
		Filter: func(_, to types.ReplicaID, msg types.Message, _ time.Time) bool {
			if _, isCert := msg.(*types.CertMsg); isCert && to == starved {
				lost++
				return false
			}
			return true
		},
	}, log.hooks())
	if err != nil {
		t.Fatal(err)
	}
	net.Run(10 * time.Second)
	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	log.checkRoundConsistent(t)

	ref, got := log.chains[0], log.chains[starved]
	if len(ref) < 100 || lost < len(ref) {
		t.Fatalf("run too short: %d rounds, %d certificates dropped", len(ref), lost)
	}
	// The last round or two may still be in flight at the starved replica.
	if len(got) < len(ref)-2 {
		t.Fatalf("starved replica finalized %d of %d rounds", len(got), len(ref))
	}
	m := engines[starved].Metrics()
	if m["final_fast"]+m["final_indirect"] < int64(len(got))-2 || m["final_slow"] != 0 {
		t.Errorf("starved replica: fast=%d indirect=%d slow=%d over %d rounds",
			m["final_fast"], m["final_indirect"], m["final_slow"], len(got))
	}
	if m["resends"] != 0 {
		t.Errorf("starved replica resent %d times: a round stalled", m["resends"])
	}
	if sent := sumMetric(engines, "final_votes_suppressed"); sent < int64(len(ref))*3 {
		t.Errorf("final_votes_suppressed = %d over %d fast-path rounds: finalization votes still flow", sent, len(ref))
	}
}

// TestVoteStarvedReplicaStillAdvances (n=4): every VoteMsg addressed to
// one replica is lost, so it never collects a notarization quorum of votes
// itself. No replica sends an Advance for a fast-path round any more: the
// fast certificate its peers broadcast is the round's notarization and
// unlock, and the starved replica must leave every round through it. It
// must finalize every round the others do, with the same blocks, and never
// fall back on resends. This is the Advance-starved mirror of
// TestCertStarvedReplicaStillFinalizes.
func TestVoteStarvedReplicaStillAdvances(t *testing.T) {
	params := types.Params{N: 4, F: 1, P: 1}
	const starved = types.ReplicaID(3)
	engines := makeRelayEngines(t, params, false, nil)
	log := newRoundLog()
	var lost int
	net, err := simnet.New(engines, simnet.Options{
		Topology: wan.Uniform(params.N, 10*time.Millisecond),
		Seed:     31,
		Filter: func(_, to types.ReplicaID, msg types.Message, _ time.Time) bool {
			if _, isVote := msg.(*types.VoteMsg); isVote && to == starved {
				lost++
				return false
			}
			return true
		},
	}, log.hooks())
	if err != nil {
		t.Fatal(err)
	}
	net.Run(10 * time.Second)
	if len(log.faults) > 0 {
		t.Fatalf("safety faults: %v", log.faults)
	}
	log.checkRoundConsistent(t)

	ref, got := log.chains[0], log.chains[starved]
	if len(ref) < 100 || lost < len(ref) {
		t.Fatalf("run too short: %d rounds, %d vote messages dropped", len(ref), lost)
	}
	// The last round or two may still be in flight at the starved replica.
	if len(got) < len(ref)-2 {
		t.Fatalf("starved replica finalized %d of %d rounds", len(got), len(ref))
	}
	m := engines[starved].Metrics()
	if m["resends"] != 0 {
		t.Errorf("starved replica resent %d times: a round stalled", m["resends"])
	}
	if m["advances_skipped"] < int64(len(got))-2 || m["final_fast"] != 0 {
		t.Errorf("starved replica left %d of %d rounds through a fast certificate, formed %d itself",
			m["advances_skipped"], len(got), m["final_fast"])
	}
	if sent := sumMetric(engines, "advances"); sent != 0 {
		t.Errorf("%d Advances sent over %d fast-path rounds", sent, len(ref))
	}
}
