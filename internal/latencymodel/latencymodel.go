// Package latencymodel reproduces Table 1 of the paper analytically: for
// each surveyed protocol it records the block finalization latency, block
// creation latency, and the replica-count requirements as functions of f
// and p, and renders the table with quorum sizes evaluated at concrete
// parameters. The four protocols implemented in this repository also get
// measured step counts from the Figure 1 experiment (cmd/bench -exp fig1).
package latencymodel

import (
	"fmt"
	"strings"
)

// LatencyUnit distinguishes actual-delay (δ) from bound (Δ) latencies.
type LatencyUnit string

// Units of Table 1.
const (
	Delta    LatencyUnit = "δ" // true message delivery time
	BigDelta LatencyUnit = "Δ" // pessimistic synchrony bound
)

// Entry is one row of Table 1.
type Entry struct {
	// Name of the protocol as listed in the paper.
	Name string
	// FinalSteps is the block finalization latency coefficient (e.g. 2 for
	// 2δ); FinalUnit gives its unit.
	FinalSteps int
	FinalUnit  LatencyUnit
	// FinalReq computes the block finalization quorum from (f, p);
	// FinalReqExpr is its symbolic form.
	FinalReq     func(f, p int) int
	FinalReqExpr string
	// CreateSteps is the block creation latency coefficient; CreateUnit
	// its unit. Zero with empty unit means not applicable.
	CreateSteps int
	CreateUnit  LatencyUnit
	// CreateReq computes the block creation quorum; nil when N/A.
	CreateReq     func(f, p int) int
	CreateReqExpr string
	// Replicas computes the minimum replica count; ReplicasExpr the
	// symbolic bound.
	Replicas     func(f, p int) int
	ReplicasExpr string
	// Rotating marks rotating-leader support (the ✓ column).
	Rotating bool
	// Implemented marks the protocols built in this repository.
	Implemented bool
}

func q2f1(f, _ int) int { return 2*f + 1 }
func n3f1(f, _ int) int { return 3*f + 1 }

// Table returns every row of Table 1, in the paper's order.
func Table() []Entry {
	return []Entry{
		{
			Name:       "Casper FFG",
			FinalSteps: 1, FinalUnit: BigDelta, // O(Δ)
			FinalReq: q2f1, FinalReqExpr: "2f+1",
			CreateSteps: 1, CreateUnit: BigDelta,
			CreateReq: nil, CreateReqExpr: "N/A",
			Replicas: n3f1, ReplicasExpr: "3f+1",
			Rotating: true,
		},
		{
			Name:       "Fast HotStuff",
			FinalSteps: 5, FinalUnit: Delta,
			FinalReq: q2f1, FinalReqExpr: "2f+1",
			CreateSteps: 2, CreateUnit: Delta,
			CreateReq: q2f1, CreateReqExpr: "2f+1",
			Replicas: n3f1, ReplicasExpr: "3f+1",
		},
		{
			Name:       "Jolteon",
			FinalSteps: 5, FinalUnit: Delta,
			FinalReq: q2f1, FinalReqExpr: "2f+1",
			CreateSteps: 2, CreateUnit: Delta,
			CreateReq: q2f1, CreateReqExpr: "2f+1",
			Replicas: n3f1, ReplicasExpr: "3f+1",
		},
		{
			Name:       "PaLa",
			FinalSteps: 4, FinalUnit: Delta,
			FinalReq: q2f1, FinalReqExpr: "2f+1",
			CreateSteps: 2, CreateUnit: Delta,
			CreateReq: q2f1, CreateReqExpr: "2f+1",
			Replicas: n3f1, ReplicasExpr: "3f+1",
		},
		{
			Name:       "Zelma",
			FinalSteps: 2, FinalUnit: Delta,
			FinalReq: func(f, p int) int { return 3*f + p + 1 }, FinalReqExpr: "3f+p+1",
			CreateSteps: 2, CreateUnit: Delta,
			CreateReq: func(f, p int) int { return 2*f + p + 1 }, CreateReqExpr: "2f+p+1",
			Replicas: func(f, p int) int { return 3*f + 2*p + 1 }, ReplicasExpr: "3f+2p+1",
		},
		{
			Name:       "SBFT",
			FinalSteps: 3, FinalUnit: Delta,
			FinalReq: func(f, p int) int { return 3*f + p + 1 }, FinalReqExpr: "3f+p+1",
			CreateSteps: 3, CreateUnit: Delta,
			CreateReq: func(f, p int) int { return 2*f + p + 1 }, CreateReqExpr: "2f+p+1",
			Replicas: func(f, p int) int { return 3*f + 2*p + 1 }, ReplicasExpr: "3f+2p+1",
		},
		{
			Name:       "Streamlet",
			FinalSteps: 6, FinalUnit: BigDelta,
			FinalReq: q2f1, FinalReqExpr: "2f+1",
			CreateSteps: 2, CreateUnit: BigDelta,
			CreateReq: q2f1, CreateReqExpr: "2f+1",
			Replicas: n3f1, ReplicasExpr: "3f+1",
			Rotating: true, Implemented: true,
		},
		{
			Name:       "Bullshark",
			FinalSteps: 4, FinalUnit: Delta,
			FinalReq: q2f1, FinalReqExpr: "2f+1",
			CreateSteps: 2, CreateUnit: Delta,
			CreateReq: q2f1, CreateReqExpr: "2f+1",
			Replicas: n3f1, ReplicasExpr: "3f+1",
			Rotating: true,
		},
		{
			Name:       "BBCA-Chain",
			FinalSteps: 3, FinalUnit: Delta,
			FinalReq: q2f1, FinalReqExpr: "2f+1",
			CreateSteps: 3, CreateUnit: Delta,
			CreateReq: q2f1, CreateReqExpr: "2f+1",
			Replicas: n3f1, ReplicasExpr: "3f+1",
			Rotating: true,
		},
		{
			Name:       "ICC / Simplex",
			FinalSteps: 3, FinalUnit: Delta,
			FinalReq: q2f1, FinalReqExpr: "2f+1",
			CreateSteps: 2, CreateUnit: Delta,
			CreateReq: q2f1, CreateReqExpr: "2f+1",
			Replicas: n3f1, ReplicasExpr: "3f+1",
			Rotating: true, Implemented: true,
		},
		{
			Name:       "Mysticeti",
			FinalSteps: 3, FinalUnit: Delta,
			FinalReq: q2f1, FinalReqExpr: "2f+1",
			CreateSteps: 1, CreateUnit: Delta,
			CreateReq: q2f1, CreateReqExpr: "2f+1",
			Replicas: n3f1, ReplicasExpr: "3f+1",
			Rotating: true,
		},
		{
			Name:       "Banyan",
			FinalSteps: 2, FinalUnit: Delta,
			FinalReq: func(f, p int) int { return 3*f + p - 1 }, FinalReqExpr: "3f+p*-1",
			CreateSteps: 2, CreateUnit: Delta,
			CreateReq: func(f, p int) int { return 2*f + p }, CreateReqExpr: "2f+p*",
			Replicas: func(f, p int) int { return 3*f + 2*p - 1 }, ReplicasExpr: "3f+2p*-1",
			Rotating: true, Implemented: true,
		},
	}
}

// HotStuffChained returns the row for the 3-chain HotStuff variant this
// repository implements (the paper's table lists the pipelined Fast
// HotStuff instead; chained HotStuff commits on a 3-chain, ~7δ at the
// proposer).
func HotStuffChained() Entry {
	return Entry{
		Name:       "HotStuff (chained, 3-phase)",
		FinalSteps: 7, FinalUnit: Delta,
		FinalReq: q2f1, FinalReqExpr: "2f+1",
		CreateSteps: 2, CreateUnit: Delta,
		CreateReq: q2f1, CreateReqExpr: "2f+1",
		Replicas: n3f1, ReplicasExpr: "3f+1",
		Rotating: true, Implemented: true,
	}
}

// Render formats the table with quorums evaluated at (f, p), mirroring
// Table 1's layout.
func Render(f, p int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 at f=%d, p=%d\n", f, p)
	fmt.Fprintf(&b, "%-16s %10s %12s %10s %12s %10s %9s\n",
		"Protocol", "FinalLat", "FinalReq", "CreateLat", "CreateReq", "Replicas", "Rotating")
	for _, e := range Table() {
		final := fmt.Sprintf("%d%s", e.FinalSteps, e.FinalUnit)
		create := "-"
		if e.CreateUnit != "" {
			create = fmt.Sprintf("%d%s", e.CreateSteps, e.CreateUnit)
		}
		createReq := e.CreateReqExpr
		if e.CreateReq != nil {
			createReq = fmt.Sprintf("%s=%d", e.CreateReqExpr, e.CreateReq(f, p))
		}
		rot := ""
		if e.Rotating {
			rot = "yes"
		}
		fmt.Fprintf(&b, "%-16s %10s %12s %10s %12s %10s %9s\n",
			e.Name,
			final,
			fmt.Sprintf("%s=%d", e.FinalReqExpr, e.FinalReq(f, p)),
			create,
			createReq,
			fmt.Sprintf("%s=%d", e.ReplicasExpr, e.Replicas(f, p)),
			rot,
		)
	}
	return b.String()
}
