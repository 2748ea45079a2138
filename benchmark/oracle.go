package main

import "fmt"

// checkRealtime applies the correctness oracles to a finished real-time
// run and returns every violation found.
func checkRealtime(d *rtDetail) []string {
	var out []string
	add := func(format string, args ...any) {
		if len(out) < 40 {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	for _, err := range d.sys.faults() {
		add("safety fault: %v", err)
	}
	out = append(out, d.rd.violations...)
	if d.rd.rounds == 0 {
		add("observer committed no round in the window")
	}

	// Every committed transaction was submitted, and committed once; one
	// the client sent again may commit once more per resubmission (the first
	// copy may have been slow, not orphaned).
	for id, n := range d.rd.seen {
		switch {
		case n == 0:
		case uint64(id) >= d.submittedIDs:
			add("committed transaction %d was never submitted (%d were)", id, d.submittedIDs)
		case int(n) > 1+d.gen.resends[uint64(id)]:
			add("transaction %d committed %d times, submitted %d times", id, n, 1+d.gen.resends[uint64(id)])
		}
	}

	// Replicas that stream their commits agree with the observer round by
	// round.
	for i, commits := range d.rd.others {
		for _, c := range commits {
			if want, ok := d.rd.observed[c.round]; ok && want != c.id {
				add("replica %d committed block %s at round %d, observer %s", i, c.id, c.round, want)
			}
		}
	}

	// Replicas that expose their finalized chain hold the observer's
	// blocks in the observer's order. Keyed by ID, not by position: a
	// crashed-and-restarted replica's chain is shorter.
	if ref := d.sys.chain(0); ref != nil {
		pos := make(map[string]int, len(ref))
		for i, id := range ref {
			pos[id] = i
		}
		for i := 1; i < replicas; i++ {
			for _, v := range chainOrderViolations(pos, d.sys.chain(i)) {
				add("replica %d: %s", i, v)
			}
		}
	}
	return out
}

// chainOrderViolations checks that the blocks of chain known to the
// reference (pos maps ID to reference position) appear in reference
// order with no unknown block between two known ones. Unknown blocks may
// lead (the reference pruned them) or trail (a replica may finalize a
// little past the observer before both stop).
func chainOrderViolations(pos map[string]int, chain []string) []string {
	var out []string
	last, lastKnownAt := -1, -1
	for i, id := range chain {
		p, ok := pos[id]
		if !ok {
			continue
		}
		if lastKnownAt >= 0 && i != lastKnownAt+1 {
			out = append(out, fmt.Sprintf("%d blocks unknown to the observer sit between %s and %s",
				i-lastKnownAt-1, chain[lastKnownAt], id))
		}
		if p <= last {
			out = append(out, fmt.Sprintf("block %s is out of the observer's order", id))
		}
		last, lastKnownAt = p, i
	}
	return out
}
