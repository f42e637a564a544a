package trace

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mahjong/internal/budget"
	"mahjong/internal/failure"
)

func TestZeroValuesNoOp(t *testing.T) {
	var c Ctx
	if c.Enabled() {
		t.Fatal("zero Ctx reports Enabled")
	}
	sp := c.Start("pta.solve")
	sp.Add("work", 1)
	sp.Worker(3)
	sp.End()
	sp.Close(errors.New("x"))
	sp.CloseAborted()
	if sub := sp.Ctx(); sub.Enabled() {
		t.Fatal("zero Span yields enabled Ctx")
	}
	var tr *Tracer
	if tr.Root().Enabled() {
		t.Fatal("nil Tracer yields enabled Ctx")
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != 0 || snap.WellFormed() != nil {
		t.Fatalf("nil tracer snapshot not empty/well-formed: %+v", snap)
	}
}

func TestSpanTreeAndCounters(t *testing.T) {
	tr := New()
	root := tr.Root().Start("server.job")
	model := root.Ctx().Start("core.build")
	equiv := model.Ctx().Start("automata.equiv")
	equiv.Add("states", 2)
	equiv.Add("states", 3) // accumulates
	equiv.Add("merge_pairs", 7)
	equiv.End()
	model.End()
	root.End()

	snap := tr.Snapshot()
	if err := snap.WellFormed(); err != nil {
		t.Fatal(err)
	}
	if len(snap.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(snap.Spans))
	}
	stages := []string{snap.Spans[0].Stage, snap.Spans[1].Stage, snap.Spans[2].Stage}
	want := []string{"server.job", "core.build", "automata.equiv"}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("pre-order stages %v, want %v", stages, want)
		}
	}
	if snap.Spans[0].Parent != -1 || snap.Spans[1].Parent != 0 || snap.Spans[2].Parent != 1 {
		t.Fatalf("parents wrong: %+v", snap.Spans)
	}
	c := snap.Spans[2]
	if v, ok := c.Counter("states"); !ok || v != 5 {
		t.Fatalf("states = %d (%v), want 5", v, ok)
	}
	// Counters are name-sorted in the export.
	if c.Counters[0].Name != "merge_pairs" || c.Counters[1].Name != "states" {
		t.Fatalf("counters not sorted: %+v", c.Counters)
	}
}

func TestFirstCloseWins(t *testing.T) {
	tr := New()
	sp := tr.Root().Start("pta.solve")
	sp.FailTag(FailPanic, "boom")
	sp.End() // must not clear the failure
	got := tr.Snapshot().Spans[0]
	if got.Fail != FailPanic || got.Error != "boom" {
		t.Fatalf("fail=%q error=%q, want panic/boom", got.Fail, got.Error)
	}

	tr2 := New()
	sp2 := tr2.Root().Start("pta.solve")
	sp2.End()
	sp2.CloseAborted() // deferred backstop after a normal End
	if got := tr2.Snapshot().Spans[0]; got.Fail != "" {
		t.Fatalf("CloseAborted overrode a successful close: %q", got.Fail)
	}
}

func TestOpenSpanRejected(t *testing.T) {
	tr := New()
	tr.Root().Start("pta.solve") // never closed
	snap := tr.Snapshot()
	if snap.Spans[0].DurNS != -1 {
		t.Fatalf("open span exported DurNS=%d, want -1", snap.Spans[0].DurNS)
	}
	if err := snap.WellFormed(); err == nil || !strings.Contains(err.Error(), "never closed") {
		t.Fatalf("WellFormed = %v, want never-closed error", err)
	}
}

func TestWellFormedRejectsOutlivingChild(t *testing.T) {
	snap := &Trace{Version: 1, Spans: []SpanInfo{
		{ID: 0, Parent: -1, Stage: "server.job", Worker: -1, StartNS: 0, DurNS: 100},
		{ID: 1, Parent: 0, Stage: "pta.solve", Worker: -1, StartNS: 50, DurNS: 100},
	}}
	if err := snap.WellFormed(); err == nil || !strings.Contains(err.Error(), "outlives") {
		t.Fatalf("WellFormed = %v, want outlives error", err)
	}
}

func TestWorkerSpanOrderDeterministic(t *testing.T) {
	// Worker spans are created concurrently (racy creation order) but
	// must export in worker order.
	for round := 0; round < 10; round++ {
		tr := New()
		root := tr.Root().Start("core.build")
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sp := root.Ctx().Start("automata.equiv")
				sp.Worker(w)
				sp.Add("merge_pairs", int64(w))
				sp.End()
			}(w)
		}
		wg.Wait()
		root.End()
		snap := tr.Snapshot()
		if err := snap.WellFormed(); err != nil {
			t.Fatal(err)
		}
		for i, s := range snap.Spans[1:] {
			if s.Worker != i {
				t.Fatalf("round %d: span %d has worker %d, want %d", round, i+1, s.Worker, i)
			}
			if v, _ := s.Counter("merge_pairs"); v != int64(i) {
				t.Fatalf("round %d: worker %d carries pairs=%d", round, i, v)
			}
		}
	}
}

func TestScrubbedExportDeterministic(t *testing.T) {
	run := func() []byte {
		tr := New()
		root := tr.Root().Start("server.job")
		solve := root.Ctx().Start("pta.solve")
		solve.Add("work", 42)
		solve.Close(fmt.Errorf("wrapped: %w", context.Canceled))
		root.End()
		snap := tr.Snapshot()
		snap.Scrub()
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("scrubbed exports differ:\n%s\n---\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"fail": "cancelled"`)) {
		t.Fatalf("failure class scrubbed away:\n%s", a)
	}
	if bytes.Contains(a, []byte("wrapped")) {
		t.Fatalf("error text survived scrubbing:\n%s", a)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{context.Canceled, FailCancelled},
		{fmt.Errorf("pta: %w", context.DeadlineExceeded), FailCancelled},
		{fmt.Errorf("fpg: %w", budget.ErrExhausted), FailBudget},
		{&failure.InternalError{Stage: "pta.solve", Value: "boom"}, FailPanic},
		{errors.New("plain"), FailError},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

func TestWriteTree(t *testing.T) {
	tr := New()
	root := tr.Root().Start("server.job")
	solve := root.Ctx().Start("pta.solve")
	solve.Add("work", 7)
	solve.FailTag(FailBudget, "out of facts")
	root.End()
	var buf bytes.Buffer
	tr.Snapshot().WriteTree(&buf)
	out := buf.String()
	if !strings.Contains(out, "server.job") ||
		!strings.Contains(out, "  pta.solve") ||
		!strings.Contains(out, "FAILED(budget): out of facts") ||
		!strings.Contains(out, "work=7") {
		t.Fatalf("tree rendering missing pieces:\n%s", out)
	}
}
