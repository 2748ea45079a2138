package main

import (
	"fmt"
	"testing"
	"time"

	"banyan/internal/harness"
)

func TestListFlag(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownExperiment: an unknown name fails the whole run, even next
// to a known one, and before anything runs.
func TestUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"fig99", "fig1,nosuch"} {
		if err := run([]string{"-exp", exp}); err == nil {
			t.Fatalf("-exp %s accepted", exp)
		}
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestQuickExperimentsRun executes the cheapest experiments end to end so
// the bench tool itself stays correct.
func TestQuickExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("bench smoke is not short")
	}
	for _, exp := range []string{"table1", "fig1", "ablation-fastpath"} {
		if err := run([]string{"-exp", exp, "-quick", "-duration", "5s"}); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

// TestFig1Steps is Figure 1's claim as an assertion: on a uniform
// topology with the processing model off, Banyan's fast path finalizes a
// proposal in 2 communication steps and ICC in 3, exactly.
func TestFig1Steps(t *testing.T) {
	o := options{duration: 20 * time.Second, seed: 1}
	for _, tc := range []struct {
		proto harness.Protocol
		want  string
	}{
		{harness.Banyan, "2.00"},
		{harness.ICC, "3.00"},
	} {
		_, steps, err := fig1Steps(o, tc.proto)
		if err != nil {
			t.Fatalf("%s: %v", tc.proto, err)
		}
		if got := fmt.Sprintf("%.2f", steps); got != tc.want {
			t.Errorf("%s: %s steps, want %s", tc.proto, got, tc.want)
		}
	}
}
