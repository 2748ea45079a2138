// Package obs is the consensus observability layer: a block-lifecycle
// tracer, stage-latency histograms and gauges bundled into an Observer,
// a slow-round detector, and an HTTP export surface (Prometheus text,
// pprof, Chrome-trace dumps).
//
// The design splits along the hot/cold line. Hot-path instruments —
// metrics.Histogram Record, metrics.Gauge Set, cached *metrics.Counter
// adds — are lock-free atomics and allocation-free, honoring the PR 3
// discipline (gated by TestAllocRegression* in this package). The tracer
// appends into a preallocated ring under a mutex (an append is two
// fixed-size struct writes; the lock is uncontended because each replica
// owns its tracer) and is likewise allocation-free. Everything else —
// snapshotting, Chrome-trace serialization, Prometheus rendering — runs
// on the scrape path and may allocate freely.
package obs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"banyan/internal/types"
)

// Stage identifies a point (or span) in a block's lifecycle. The
// instant stages trace the paper's commit path in order; the span
// stages attribute time to the subsystems that shape it.
type Stage uint8

const (
	// Instant stages (Dur == 0): the block reached this lifecycle point.
	StageProposalReceived Stage = iota
	StageVoteSent
	StageNotarized
	StageFastCertified
	StageBodiesResolved
	StageFinalized
	StageDelivered

	// Span stages (Dur > 0): time attributed to a subsystem.
	SpanVerify      // signature/structure verification of one message
	SpanWALFlush    // one group-commit flush (write + fsync)
	SpanDissemFetch // one batch fetch, Begin to body arrival
	SpanStateSync   // one snapshot fetch attempt
	numStages
)

var stageNames = [numStages]string{
	StageProposalReceived: "proposal_received",
	StageVoteSent:         "vote_sent",
	StageNotarized:        "notarized",
	StageFastCertified:    "fast_certified",
	StageBodiesResolved:   "bodies_resolved",
	StageFinalized:        "finalized",
	StageDelivered:        "delivered",
	SpanVerify:            "verify",
	SpanWALFlush:          "wal_flush",
	SpanDissemFetch:       "dissem_fetch",
	SpanStateSync:         "statesync_fetch",
}

// String returns the stage's snake_case name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// Event is one ring-buffer entry: an instant lifecycle mark (Dur 0) or a
// completed span (Dur > 0, TS the span start). TS is nanoseconds since
// the Unix epoch in whatever clock domain the caller observes — the
// engine's virtual clock under simulation, wall time on live replicas —
// so events from one tracer are mutually comparable but clock domains
// must not be mixed within a stage.
type Event struct {
	TS    int64 // ns since epoch
	Dur   int64 // ns; 0 for instants
	Round types.Round
	Block types.BlockID
	Stage Stage
}

// Tracer is a per-replica fixed-capacity ring of lifecycle events. All
// methods are nil-receiver safe no-ops, so disabled observability costs
// one predictable branch. Appends never allocate; once the ring wraps,
// new events overwrite the oldest.
type Tracer struct {
	mu      sync.Mutex
	events  []Event
	next    int
	wrapped bool
}

// DefaultTraceEvents is the ring capacity when none is given: at six to
// eight events per block it holds on the order of a thousand recent
// blocks, a few MB per replica.
const DefaultTraceEvents = 8192

// NewTracer returns a tracer holding the last capacity events
// (DefaultTraceEvents if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	return &Tracer{events: make([]Event, capacity)}
}

// Mark appends an instant lifecycle event.
func (t *Tracer) Mark(round types.Round, block types.BlockID, stage Stage, ts time.Time) {
	if t == nil {
		return
	}
	t.append(Event{TS: ts.UnixNano(), Round: round, Block: block, Stage: stage})
}

// Span appends a completed span starting at start and lasting dur.
func (t *Tracer) Span(round types.Round, block types.BlockID, stage Stage, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	if dur < 0 {
		dur = 0
	}
	t.append(Event{TS: start.UnixNano(), Dur: int64(dur), Round: round, Block: block, Stage: stage})
}

func (t *Tracer) append(e Event) {
	t.mu.Lock()
	t.events[t.next] = e
	t.next++
	if t.next == len(t.events) {
		t.next = 0
		t.wrapped = true
	}
	t.mu.Unlock()
}

// Events returns a copy of the buffered events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		out := make([]Event, t.next)
		copy(out, t.events[:t.next])
		return out
	}
	out := make([]Event, len(t.events))
	n := copy(out, t.events[t.next:])
	copy(out[n:], t.events[:t.next])
	return out
}

// EventsForRound returns the buffered events of one round, oldest first.
func (t *Tracer) EventsForRound(round types.Round) []Event {
	var out []Event
	for _, e := range t.Events() {
		if e.Round == round {
			out = append(out, e)
		}
	}
	return out
}

// RoundSummary is the per-round digest of trace events: when the round's
// block first appeared, when it finalized, and how much span time each
// subsystem consumed.
type RoundSummary struct {
	Round      types.Round      `json:"round"`
	Block      string           `json:"block,omitempty"`
	Events     int              `json:"events"`
	FirstTS    int64            `json:"first_ts_ns"`
	CommitNs   int64            `json:"commit_ns,omitempty"` // finalized − proposal_received
	SpanTotals map[string]int64 `json:"span_totals_ns,omitempty"`
}

// Summaries digests the buffered events into one summary per round,
// ascending by round.
func (t *Tracer) Summaries() []RoundSummary {
	events := t.Events()
	byRound := make(map[types.Round]*RoundSummary)
	var rounds []types.Round
	for _, e := range events {
		s, ok := byRound[e.Round]
		if !ok {
			s = &RoundSummary{Round: e.Round, FirstTS: e.TS}
			byRound[e.Round] = s
			rounds = append(rounds, e.Round)
		}
		s.Events++
		if e.TS < s.FirstTS {
			s.FirstTS = e.TS
		}
		switch e.Stage {
		case StageProposalReceived:
			if s.Block == "" {
				s.Block = shortID(e.Block)
			}
		case StageFinalized:
			s.Block = shortID(e.Block)
		}
		if e.Dur > 0 {
			if s.SpanTotals == nil {
				s.SpanTotals = make(map[string]int64)
			}
			s.SpanTotals[e.Stage.String()] += e.Dur
		}
	}
	// Derive commit time where both endpoints are present.
	for _, s := range byRound {
		var received, finalized int64
		for _, e := range events {
			if e.Round != s.Round {
				continue
			}
			switch e.Stage {
			case StageProposalReceived:
				if received == 0 || e.TS < received {
					received = e.TS
				}
			case StageFinalized:
				finalized = e.TS
			}
		}
		if received > 0 && finalized > received {
			s.CommitNs = finalized - received
		}
	}
	sortRounds(rounds)
	out := make([]RoundSummary, 0, len(rounds))
	for _, r := range rounds {
		out = append(out, *byRound[r])
	}
	return out
}

func sortRounds(rounds []types.Round) {
	for i := 1; i < len(rounds); i++ {
		for j := i; j > 0 && rounds[j] < rounds[j-1]; j-- {
			rounds[j], rounds[j-1] = rounds[j-1], rounds[j]
		}
	}
}

func shortID(id types.BlockID) string { return fmt.Sprintf("%x", id[:6]) }

// WriteChromeTrace serializes the buffered events as a Chrome trace
// (chrome://tracing / Perfetto "traceEvents" JSON): instants as "i"
// phase events, spans as "X" complete events, one thread row per stage.
func (t *Tracer) WriteChromeTrace(w io.Writer, replica types.ReplicaID) error {
	events := t.Events()
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	for i, e := range events {
		sep := ","
		if i == 0 {
			sep = ""
		}
		// Chrome traces use microsecond timestamps.
		tsUs := float64(e.TS) / 1e3
		var err error
		if e.Dur > 0 {
			_, err = fmt.Fprintf(w,
				`%s{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"round":%d,"block":%q}}`,
				sep, e.Stage.String(), tsUs, float64(e.Dur)/1e3, replica, int(e.Stage), e.Round, shortID(e.Block))
		} else {
			_, err = fmt.Fprintf(w,
				`%s{"name":%q,"ph":"i","s":"t","ts":%.3f,"pid":%d,"tid":%d,"args":{"round":%d,"block":%q}}`,
				sep, e.Stage.String(), tsUs, replica, int(e.Stage), e.Round, shortID(e.Block))
		}
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
