package integration

// Span-accounting and golden-file tests for the pipeline tracer: the
// full pipeline runs over the examples/ programs and the span tree must
// be well-formed (every span closed, children inside their parents) with
// counter deltas that sum to exactly the totals the pipeline reports via
// pta.Stats / Report.Solver / clients.Metrics. Failure paths (injected
// panics, budget exhaustion, cancellation) must still yield a closed
// span tree tagged with the failure.

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mahjong"
	"mahjong/internal/faultinject"
	"mahjong/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the trace golden files from the current run")

// examplePrograms loads every textual-IR program shipped under
// examples/ plus the benchmarks the runnable examples analyze.
func examplePrograms(t *testing.T) map[string]*mahjong.Program {
	t.Helper()
	progs := make(map[string]*mahjong.Program)
	irs, err := filepath.Glob("../../examples/*/*.ir")
	if err != nil {
		t.Fatal(err)
	}
	if len(irs) == 0 {
		t.Fatal("no .ir files under examples/: the tracing tests need them")
	}
	for _, path := range irs {
		prog, err := mahjong.LoadProgram(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		progs[strings.TrimSuffix(filepath.Base(path), ".ir")] = prog
	}
	for _, bench := range []string{"pmd", "checkstyle"} {
		prog, err := mahjong.GenerateBenchmark(bench)
		if err != nil {
			t.Fatalf("benchmark %s: %v", bench, err)
		}
		progs[bench] = prog
	}
	return progs
}

// tracedRun executes the full pipeline (abstraction build + main
// analysis + clients) single-threaded under one tracer and returns the
// snapshot alongside the pipeline's own accounting.
func tracedRun(t *testing.T, prog *mahjong.Program, analysis string) (*trace.Trace, *mahjong.Abstraction, *mahjong.Report) {
	t.Helper()
	tracer := trace.New()
	abs, err := mahjong.BuildAbstractionContext(context.Background(), prog, mahjong.AbstractionOptions{
		Workers: 1,
		Trace:   tracer.Root(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mahjong.AnalyzeContext(context.Background(), prog, mahjong.Config{
		Analysis:    analysis,
		Heap:        mahjong.HeapMahjong,
		Abstraction: abs,
		Trace:       tracer.Root(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tracer.Snapshot(), abs, rep
}

// spansOf returns the indices of snap's spans with the given stage, in
// export (pre-)order.
func spansOf(snap *trace.Trace, stage string) []int {
	var out []int
	for i := range snap.Spans {
		if snap.Spans[i].Stage == stage {
			out = append(out, i)
		}
	}
	return out
}

// childrenOf returns the indices of parent's direct children.
func childrenOf(snap *trace.Trace, parent int) []int {
	var out []int
	for i := range snap.Spans {
		if snap.Spans[i].Parent == parent {
			out = append(out, i)
		}
	}
	return out
}

func wantCounter(t *testing.T, snap *trace.Trace, span int, name string, want int64) {
	t.Helper()
	got, ok := snap.Spans[span].Counter(name)
	if !ok {
		t.Errorf("span %s#%d has no %q counter", snap.Spans[span].Stage, span, name)
		return
	}
	if got != want {
		t.Errorf("span %s#%d counter %s = %d, want %d", snap.Spans[span].Stage, span, name, got, want)
	}
}

func TestSpanAccounting(t *testing.T) {
	for name, prog := range examplePrograms(t) {
		t.Run(name, func(t *testing.T) {
			snap, abs, rep := tracedRun(t, prog, "2obj")
			if err := snap.WellFormed(); err != nil {
				t.Fatalf("span tree malformed: %v", err)
			}
			for _, s := range snap.Spans {
				if s.Fail != "" {
					t.Fatalf("span %s failed on a healthy run: %s (%s)", s.Stage, s.Fail, s.Error)
				}
			}

			// The stages appear in pipeline order: pre-analysis solve,
			// FPG, heap modeling, main solve, clients.
			solves := spansOf(snap, faultinject.StageSolve)
			if len(solves) != 2 {
				t.Fatalf("want 2 pta.solve spans (pre + main), got %d", len(solves))
			}
			if len(spansOf(snap, faultinject.StageFPG)) != 1 ||
				len(spansOf(snap, faultinject.StageModel)) != 1 ||
				len(spansOf(snap, faultinject.StageClients)) != 1 {
				t.Fatalf("missing pipeline stage spans: %+v", snap.Spans)
			}

			// Main-analysis solve counters equal Report.Solver exactly.
			main := solves[1]
			st := rep.Solver
			wantCounter(t, snap, main, "nodes", int64(st.Nodes))
			wantCounter(t, snap, main, "edges", int64(st.Edges))
			wantCounter(t, snap, main, "copy_edges", int64(st.CopyEdges))
			wantCounter(t, snap, main, "propagated_bits", st.PropagatedBits)
			wantCounter(t, snap, main, "filter_masks", int64(st.FilterMasks))
			wantCounter(t, snap, main, "filter_mask_hits", st.FilterMaskHits)
			wantCounter(t, snap, main, "worklist_peak", int64(st.WorklistPeak))
			wantCounter(t, snap, main, "work", rep.Work)

			// Heap-modeling counters match the built abstraction, and the
			// per-worker equivalence spans sum to the parent's merge_pairs.
			model := spansOf(snap, faultinject.StageModel)[0]
			wantCounter(t, snap, model, "objects", int64(abs.Objects))
			wantCounter(t, snap, model, "merged_objects", int64(abs.MergedObjects))
			var pairs int64
			workers := 0
			for _, c := range childrenOf(snap, model) {
				if snap.Spans[c].Stage != faultinject.StageEquiv {
					continue
				}
				workers++
				v, _ := snap.Spans[c].Counter("merge_pairs")
				pairs += v
			}
			if workers == 0 {
				t.Fatal("no automata.equiv worker spans under core.build")
			}
			wantCounter(t, snap, model, "merge_pairs", pairs)

			// Client metrics mirror Report.Metrics.
			cl := spansOf(snap, faultinject.StageClients)[0]
			wantCounter(t, snap, cl, "call_graph_edges", int64(rep.Metrics.CallGraphEdges))
			wantCounter(t, snap, cl, "poly_call_sites", int64(rep.Metrics.PolyCallSites))
			wantCounter(t, snap, cl, "may_fail_casts", int64(rep.Metrics.MayFailCasts))
			wantCounter(t, snap, cl, "reachable_methods", int64(rep.Metrics.Reachable))
		})
	}
}

// scrubbedJSON renders a snapshot with timings zeroed — the normalizer
// the golden files are recorded under.
func scrubbedJSON(t *testing.T, snap *trace.Trace) []byte {
	t.Helper()
	snap.Scrub()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceExportGolden pins the scrubbed JSON export: two runs of the
// same program must be byte-identical, and the quickstart program's
// trace must match the checked-in golden file (refresh with
// `go test ./internal/integration -run TraceExportGolden -update-golden`).
func TestTraceExportGolden(t *testing.T) {
	progs := examplePrograms(t)
	for _, name := range []string{"quickstart", "exceptions"} {
		prog, ok := progs[name]
		if !ok {
			t.Fatalf("example program %s missing", name)
		}
		t.Run(name, func(t *testing.T) {
			snapA, _, _ := tracedRun(t, prog, "2obj")
			snapB, _, _ := tracedRun(t, prog, "2obj")
			a, b := scrubbedJSON(t, snapA), scrubbedJSON(t, snapB)
			if !bytes.Equal(a, b) {
				t.Fatalf("two runs exported different scrubbed traces:\n%s\n---\n%s", a, b)
			}
			golden := filepath.Join("testdata", name+"_trace.golden")
			if *updateGolden {
				if err := os.WriteFile(golden, a, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run with -update-golden to record): %v", err)
			}
			if !bytes.Equal(a, want) {
				t.Fatalf("trace drifted from %s (re-record with -update-golden if intended):\ngot:\n%s", golden, a)
			}
		})
	}
}

// failedStage finds the first span of the given stage carrying a
// failure tag.
func failedStage(snap *trace.Trace, stage string) *trace.SpanInfo {
	for i := range snap.Spans {
		if snap.Spans[i].Stage == stage && snap.Spans[i].Fail != "" {
			return &snap.Spans[i]
		}
	}
	return nil
}

// TestTracePanicPaths injects a panic into each pipeline stage and
// checks the property the tracer promises: the snapshot is still a
// well-formed (fully closed) tree and the struck stage's span carries
// the panic tag.
func TestTracePanicPaths(t *testing.T) {
	prog, err := mahjong.LoadProgram("../../examples/quickstart/quickstart.ir")
	if err != nil {
		t.Fatal(err)
	}
	stages := []string{
		faultinject.StageSolve,
		faultinject.StageFPG,
		faultinject.StageModel,
		faultinject.StageEquiv,
		faultinject.StageClients,
	}
	for _, stage := range stages {
		t.Run(stage, func(t *testing.T) {
			t.Cleanup(faultinject.Clear)
			faultinject.Set(faultinject.OnStage(stage, faultinject.Once(faultinject.PanicWith("injected: "+stage))))
			tracer := trace.New()
			abs, err := mahjong.BuildAbstractionContext(context.Background(), prog, mahjong.AbstractionOptions{
				Workers: 1,
				Trace:   tracer.Root(),
			})
			if err == nil && stage != faultinject.StageClients {
				t.Fatalf("abstraction build survived a %s panic", stage)
			}
			if err == nil {
				// clients.evaluate runs in the main analysis, not the build.
				_, err = mahjong.AnalyzeContext(context.Background(), prog, mahjong.Config{
					Analysis: "ci", Heap: mahjong.HeapMahjong, Abstraction: abs, Trace: tracer.Root(),
				})
				if err == nil {
					t.Fatalf("analysis survived a %s panic", stage)
				}
			}
			var ie *mahjong.InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("injected panic surfaced as %T %v, want *InternalError", err, err)
			}
			snap := tracer.Snapshot()
			if werr := snap.WellFormed(); werr != nil {
				t.Fatalf("span tree after %s panic is malformed: %v\n%+v", stage, werr, snap.Spans)
			}
			sp := failedStage(snap, stage)
			if sp == nil {
				t.Fatalf("no failed %s span in the snapshot: %+v", stage, snap.Spans)
			}
			if sp.Fail != trace.FailPanic {
				t.Fatalf("%s span fail class = %q, want %q", stage, sp.Fail, trace.FailPanic)
			}
		})
	}
}

// TestTraceBudgetAndCancelPaths exercises the two non-panic failure
// modes: resource-budget exhaustion and context cancellation both close
// the whole tree with the right tags.
func TestTraceBudgetAndCancelPaths(t *testing.T) {
	prog, err := mahjong.GenerateBenchmark("pmd")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("budget", func(t *testing.T) {
		tracer := trace.New()
		_, err := mahjong.BuildAbstractionContext(context.Background(), prog, mahjong.AbstractionOptions{
			Workers:   1,
			Resources: mahjong.ResourceBudget{Facts: 10},
			Trace:     tracer.Root(),
		})
		if err == nil || !errors.Is(err, mahjong.ErrBudgetExhausted) {
			t.Fatalf("10-fact budget did not exhaust: %v", err)
		}
		snap := tracer.Snapshot()
		if werr := snap.WellFormed(); werr != nil {
			t.Fatalf("span tree after budget exhaustion malformed: %v", werr)
		}
		sp := failedStage(snap, faultinject.StageSolve)
		if sp == nil || sp.Fail != trace.FailBudget {
			t.Fatalf("pre-analysis span not tagged budget: %+v", snap.Spans)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		tracer := trace.New()
		_, err := mahjong.AnalyzeContext(ctx, prog, mahjong.Config{
			Analysis: "ci", Heap: mahjong.HeapAllocSite, Trace: tracer.Root(),
		})
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled context did not cancel: %v", err)
		}
		snap := tracer.Snapshot()
		if werr := snap.WellFormed(); werr != nil {
			t.Fatalf("span tree after cancellation malformed: %v", werr)
		}
		sp := failedStage(snap, faultinject.StageSolve)
		if sp == nil || sp.Fail != trace.FailCancelled {
			t.Fatalf("solve span not tagged cancelled: %+v", snap.Spans)
		}
	})
}
