// Package trace is the pipeline's span tracer: a zero-dependency,
// allocation-conscious recorder of where one analysis run spent its
// time and work.
//
// A span covers one execution of one pipeline stage — its name is a
// stage constant from the faultinject registry ("pta.solve",
// "fpg.build", "core.build", …; mahjongvet's stagehook analyzer rejects
// any other name) — and records monotonic start/end times, its parent
// span, a failure tag when the stage did not complete, and per-span
// counter deltas (propagated facts, merge pairs, …). The counters
// double as a machine-checkable oracle: the
// span-accounting tests cross-check them against pta.Stats and the
// /metrics totals, so a stage that stops reporting its work breaks a
// test instead of a dashboard.
//
// Tracing is opt-in and nil-safe throughout: the zero Ctx and the zero
// Span no-op on every method, so untraced runs pay one nil check per
// stage boundary and allocate nothing. Traced runs append fixed-size
// records to one slice under a mutex, so spans may be opened from
// several goroutines.
//
// Snapshot converts the records into an exportable Trace with a
// deterministic collect-emit pass: siblings keep their creation order,
// IDs are renumbered in pre-order, and counters are sorted by name, so
// two runs of the same program differ only in their timestamps (which
// Scrub normalizes for golden tests).
package trace

import (
	"context"
	"errors"
	"sync"
	"time"

	"mahjong/internal/budget"
	"mahjong/internal/failure"
)

// Failure classes a span can close with. Empty means the stage
// completed normally.
const (
	// FailPanic: the stage panicked and a stage guard recovered it
	// (the error is a *failure.InternalError).
	FailPanic = "panic"
	// FailCancelled: context cancellation or deadline expiry.
	FailCancelled = "cancelled"
	// FailBudget: a resource budget or the legacy work budget ran out.
	FailBudget = "budget"
	// FailAborted: the span was force-closed while a budget/cancel
	// sentinel (or a panic) unwound through it; the enclosing stage's
	// span carries the precise class.
	FailAborted = "aborted"
	// FailError: any other error.
	FailError = "error"
)

// Classify maps a stage error to its failure class ("" for nil).
func Classify(err error) string {
	if err == nil {
		return ""
	}
	var ie *failure.InternalError
	if errors.As(err, &ie) {
		return FailPanic
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return FailCancelled
	}
	if errors.Is(err, budget.ErrExhausted) {
		return FailBudget
	}
	return FailError
}

// counter is one named per-span delta.
type counter struct {
	name  string
	value int64
}

// spanRec is the in-flight record of one span. Times are monotonic
// offsets from the tracer's base; end < 0 marks an open span.
type spanRec struct {
	stage    string
	parent   int32
	start    time.Duration
	end      time.Duration
	fail     string
	errMsg   string
	counters []counter
}

// Tracer collects the spans of one pipeline run (one CLI invocation or
// one mahjongd job attempt). Safe for concurrent use.
type Tracer struct {
	base  time.Time // monotonic anchor; also the run's wall-clock start
	mu    sync.Mutex
	spans []spanRec
}

// New returns an empty tracer anchored at the current time.
func New() *Tracer { return &Tracer{base: time.Now()} }

// Root returns the attachment point for top-level spans. A nil tracer
// yields the zero (disabled) Ctx.
func (t *Tracer) Root() Ctx {
	if t == nil {
		return Ctx{}
	}
	return Ctx{tr: t, parent: -1}
}

// Ctx names where new spans attach: a tracer plus a parent span. The
// zero value is disabled — Start returns the zero Span and records
// nothing — so stage options embed a Ctx at no cost to untraced runs.
type Ctx struct {
	tr     *Tracer
	parent int32
}

// Enabled reports whether spans started from this Ctx are recorded.
func (c Ctx) Enabled() bool { return c.tr != nil }

// Start opens a span for the named pipeline stage. Stage must be one of
// the faultinject Stage* constants (enforced statically by mahjongvet's
// stagehook analyzer).
func (c Ctx) Start(stage string) Span {
	if c.tr == nil {
		return Span{}
	}
	t := c.tr
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{
		stage:  stage,
		parent: c.parent,
		start:  time.Since(t.base),
		end:    -1,
	})
	t.mu.Unlock()
	return Span{tr: t, id: id}
}

// Span is a handle on one recorded span. The zero Span no-ops on every
// method. The first close (End, Close, FailTag, CloseAborted) wins;
// later closes are ignored, which lets a deferred CloseAborted act as a
// panic/sentinel backstop behind the normal End path.
type Span struct {
	tr *Tracer
	id int32
}

// Ctx returns the attachment point for this span's children.
func (s Span) Ctx() Ctx {
	if s.tr == nil {
		return Ctx{}
	}
	return Ctx{tr: s.tr, parent: s.id}
}

// Add accumulates a named counter delta on the span.
func (s Span) Add(name string, delta int64) {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	r := &s.tr.spans[s.id]
	for i := range r.counters {
		if r.counters[i].name == name {
			r.counters[i].value += delta
			s.tr.mu.Unlock()
			return
		}
	}
	r.counters = append(r.counters, counter{name: name, value: delta})
	s.tr.mu.Unlock()
}

// End closes the span successfully.
func (s Span) End() { s.close("", "") }

// Close closes the span, tagging it with err's failure class (a nil err
// closes successfully).
func (s Span) Close(err error) {
	if err == nil {
		s.close("", "")
		return
	}
	s.close(Classify(err), err.Error())
}

// FailTag closes the span with an explicit failure class and message.
func (s Span) FailTag(class, msg string) { s.close(class, msg) }

// CloseAborted closes the span as FailAborted if it is still open. Used
// as a deferred backstop inside stages that unwind via panic sentinels
// (budget exhaustion, cancellation) or genuine panics: the span closes
// during the unwind instead of dangling, and the enclosing stage's span
// records the precise failure.
func (s Span) CloseAborted() { s.close(FailAborted, "") }

// close records the end time once; subsequent calls no-op.
func (s Span) close(class, msg string) {
	if s.tr == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	r := &t.spans[s.id]
	if r.end < 0 {
		r.end = time.Since(t.base)
		r.fail = class
		r.errMsg = msg
	}
	t.mu.Unlock()
}
