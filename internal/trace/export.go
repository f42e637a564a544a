package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Counter is one exported per-span delta.
type Counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// SpanInfo is one exported span. IDs are pre-order positions in the
// span tree; Parent is -1 for top-level spans. Times are monotonic
// nanoseconds relative to the tracer's start; DurNS is -1 for a span
// that was never closed (WellFormed rejects such traces).
type SpanInfo struct {
	ID       int       `json:"id"`
	Parent   int       `json:"parent"`
	Stage    string    `json:"stage"`
	StartNS  int64     `json:"start_ns"`
	DurNS    int64     `json:"dur_ns"`
	Fail     string    `json:"fail,omitempty"`
	Error    string    `json:"error,omitempty"`
	Counters []Counter `json:"counters,omitempty"`
}

// Trace is a deterministic export of one tracer's spans: siblings in
// creation order, IDs renumbered in pre-order, counters sorted by name.
// Two runs of the same program with the same options produce identical
// traces after Scrub.
type Trace struct {
	Version int        `json:"version"`
	Start   string     `json:"start,omitempty"` // wall-clock RFC3339Nano; scrubbed in goldens
	Spans   []SpanInfo `json:"spans"`
}

// Snapshot exports the tracer's current spans. Safe to call while spans
// are still being recorded (open spans export with DurNS = -1), though
// the usual call site is after the run completes.
func (t *Tracer) Snapshot() *Trace {
	if t == nil {
		return &Trace{Version: 1}
	}
	t.mu.Lock()
	recs := make([]spanRec, len(t.spans))
	copy(recs, t.spans)
	t.mu.Unlock()

	// Collect children per parent in creation order, which is
	// deterministic because each stage opens its spans from one
	// goroutine.
	roots := make([]int, 0, 4)
	children := make([][]int, len(recs))
	for i := range recs {
		if p := recs[i].parent; p >= 0 {
			children[p] = append(children[p], i)
		} else {
			roots = append(roots, i)
		}
	}

	out := &Trace{
		Version: 1,
		Start:   t.base.Format(time.RFC3339Nano),
		Spans:   make([]SpanInfo, 0, len(recs)),
	}
	var walk func(i, parent int)
	walk = func(i, parent int) {
		r := &recs[i]
		si := SpanInfo{
			ID:      len(out.Spans),
			Parent:  parent,
			Stage:   r.stage,
			StartNS: r.start.Nanoseconds(),
			DurNS:   -1,
		}
		if r.end >= 0 {
			si.DurNS = (r.end - r.start).Nanoseconds()
		}
		si.Fail = r.fail
		si.Error = r.errMsg
		if len(r.counters) > 0 {
			si.Counters = make([]Counter, len(r.counters))
			for j, c := range r.counters {
				si.Counters[j] = Counter{Name: c.name, Value: c.value}
			}
			sort.Slice(si.Counters, func(a, b int) bool {
				return si.Counters[a].Name < si.Counters[b].Name
			})
		}
		out.Spans = append(out.Spans, si)
		id := si.ID
		for _, c := range children[i] {
			walk(c, id)
		}
	}
	for _, r := range roots {
		walk(r, -1)
	}
	return out
}

// Counter returns the named counter's value and whether it is present.
func (s *SpanInfo) Counter(name string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// WellFormed checks the structural invariants the span-accounting tests
// rely on: every span closed, parents emitted before (and temporally
// containing) their children, and parent references in range.
func (t *Trace) WellFormed() error {
	for i := range t.Spans {
		s := &t.Spans[i]
		if s.ID != i {
			return fmt.Errorf("span %d: id %d out of pre-order", i, s.ID)
		}
		if s.DurNS < 0 {
			return fmt.Errorf("span %d (%s): never closed", i, s.Stage)
		}
		switch {
		case s.Parent == -1:
			// top-level span
		case s.Parent < 0 || s.Parent >= len(t.Spans):
			return fmt.Errorf("span %d (%s): parent %d out of range", i, s.Stage, s.Parent)
		case s.Parent >= i:
			return fmt.Errorf("span %d (%s): parent %d not emitted first", i, s.Stage, s.Parent)
		default:
			p := &t.Spans[s.Parent]
			if s.StartNS < p.StartNS || s.StartNS+s.DurNS > p.StartNS+p.DurNS {
				return fmt.Errorf("span %d (%s) [%d,%d] outlives parent %s [%d,%d]",
					i, s.Stage, s.StartNS, s.StartNS+s.DurNS,
					p.Stage, p.StartNS, p.StartNS+p.DurNS)
			}
		}
	}
	return nil
}

// Scrub zeroes every nondeterministic field (wall clock, span times,
// error message text) so two traces of the same run compare byte-equal.
// Failure *classes* survive scrubbing; only the free-text messages go.
func (t *Trace) Scrub() {
	t.Start = ""
	for i := range t.Spans {
		t.Spans[i].StartNS = 0
		t.Spans[i].DurNS = 0
		t.Spans[i].Error = ""
	}
}

// WriteJSON writes the trace as indented JSON. Output is deterministic:
// field order is fixed by the struct definitions and all collections
// are sorted slices (no map iteration anywhere on this path).
func (t *Trace) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteTree renders the span tree as indented text, one span per line —
// the format of the slow-job log.
func (t *Trace) WriteTree(w io.Writer) {
	depth := make([]int, len(t.Spans))
	for i := range t.Spans {
		s := &t.Spans[i]
		if s.Parent >= 0 && s.Parent < i {
			depth[i] = depth[s.Parent] + 1
		}
		var b strings.Builder
		for d := 0; d < depth[i]; d++ {
			b.WriteString("  ")
		}
		b.WriteString(s.Stage)
		if s.DurNS >= 0 {
			fmt.Fprintf(&b, " %s", time.Duration(s.DurNS).Round(time.Microsecond))
		} else {
			b.WriteString(" open")
		}
		if s.Fail != "" {
			fmt.Fprintf(&b, " FAILED(%s)", s.Fail)
			if s.Error != "" {
				fmt.Fprintf(&b, ": %s", s.Error)
			}
		}
		for _, c := range s.Counters {
			fmt.Fprintf(&b, " %s=%d", c.Name, c.Value)
		}
		b.WriteByte('\n')
		io.WriteString(w, b.String())
	}
}
