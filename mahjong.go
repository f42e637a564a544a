// Package mahjong is the public API of this repository: a Go
// implementation of MAHJONG, the heap abstraction of
//
//	Tian Tan, Yue Li, Jingling Xue.
//	"Efficient and Precise Points-to Analysis: Modeling the Heap by
//	Merging Equivalent Automata." PLDI 2017.
//
// together with everything it runs on: an object-oriented IR with a
// textual format, a context-sensitive whole-program points-to analysis
// (Doop-style, with call-site/object/type sensitivity), the three
// type-dependent clients of the paper (call graph construction,
// devirtualization, may-fail casting), and a benchmark suite that
// regenerates every table and figure of the paper's evaluation.
//
// The typical flow mirrors Figure 5 of the paper:
//
//	prog, _ := mahjong.LoadProgram("app.ir")        // or ParseProgram
//	abs, _  := mahjong.BuildAbstraction(prog, mahjong.AbstractionOptions{})
//	rep, _  := mahjong.Analyze(prog, mahjong.Config{
//	        Analysis: "3obj",
//	        Heap:     mahjong.HeapMahjong,
//	        Abstraction: abs,
//	})
//	fmt.Println(rep.Metrics.CallGraphEdges)
package mahjong

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"mahjong/internal/bench"
	"mahjong/internal/budget"
	"mahjong/internal/clients"
	"mahjong/internal/core"
	"mahjong/internal/failure"
	"mahjong/internal/faultinject"
	"mahjong/internal/lang"
	"mahjong/internal/parser"
	"mahjong/internal/pta"
	"mahjong/internal/synth"
	"mahjong/internal/trace"
)

// Program is an analyzable whole program; build one with LoadProgram,
// ParseProgram, GenerateBenchmark, or the lang builder API.
type Program = lang.Program

// LoadProgram parses a textual-IR file.
func LoadProgram(path string) (*Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parser.Parse(path, string(data))
}

// ParseProgram parses textual IR from a string; name is used in errors.
func ParseProgram(name, src string) (*Program, error) {
	return parser.Parse(name, src)
}

// PrintProgram renders a program back to textual IR.
func PrintProgram(p *Program) string { return parser.Print(p) }

// GenerateBenchmark builds one of the 12 named synthetic benchmarks
// ("eclipse", "pmd", "luindex", …; see BenchmarkNames).
func GenerateBenchmark(name string) (*Program, error) {
	prof, err := synth.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return synth.Generate(prof)
}

// BenchmarkNames lists the available benchmark programs.
func BenchmarkNames() []string { return synth.ProfileNames() }

// HeapKind selects a heap abstraction.
type HeapKind string

const (
	// HeapAllocSite is the conventional allocation-site abstraction.
	HeapAllocSite HeapKind = "alloc-site"
	// HeapAllocType is the naive one-object-per-type abstraction (§2.1).
	HeapAllocType HeapKind = "alloc-type"
	// HeapMahjong is the paper's abstraction; requires an Abstraction
	// built by BuildAbstraction.
	HeapMahjong HeapKind = "mahjong"
)

// AbstractionOptions tunes the heap modeler (they mirror the §5
// optimizations and the representative-selection discussion of §3.6.2).
type AbstractionOptions struct {
	// Workers bounds parallel per-type merging; 0 = GOMAXPROCS.
	Workers int
	// TypeDiverseReps elects representatives that maximize type-context
	// diversity for M-ktype (Example 3.2) instead of the paper's
	// arbitrary choice.
	TypeDiverseReps bool
	// DisableSharedAutomata turns off the hash-consed automata store
	// (ablation; results are identical, construction is slower).
	DisableSharedAutomata bool
	// OmitNullNode drops the dummy null object from the field points-to
	// graph (ablation of the null-field handling, Example 3.1).
	OmitNullNode bool
	// PreBudget caps the pre-analysis (0 = unlimited).
	PreBudget int64
	// Resources caps what the whole pipeline (pre-analysis, FPG, heap
	// modeler) may consume; exhaustion aborts with an error wrapping
	// ErrBudgetExhausted. Zero value = unlimited.
	Resources ResourceBudget
	// Trace, when enabled, records one span per pipeline stage
	// ("pta.solve", "fpg.build", "core.build" with per-worker
	// "automata.equiv" children) on the tracer behind the Ctx. Obtain one
	// from TraceCtx; the zero value disables tracing. See
	// docs/OBSERVABILITY.md.
	Trace TraceCtx
}

// Abstraction is a built Mahjong heap abstraction: the merged-object
// map plus statistics about the merge.
type Abstraction struct {
	// MOM maps each allocation site to its representative (Definition 2.2).
	MOM map[*lang.AllocSite]*lang.AllocSite
	// Objects and MergedObjects are the heap sizes before and after
	// merging (the Figure 8 pair).
	Objects, MergedObjects int
	// Classes is the number of equivalence classes of size >= 2.
	Classes int
	// PreTime, FPGTime and ModelTime split the pre-analysis pipeline
	// cost (the §6.1.1 breakdown).
	PreTime, FPGTime, ModelTime time.Duration

	res *core.Result
}

// Reduction returns the fraction of abstract objects eliminated.
func (a *Abstraction) Reduction() float64 { return a.res.Reduction() }

// Save writes the abstraction (its equivalence classes, keyed by stable
// allocation-site labels) as JSON, so an expensive modeling run can be
// reloaded later with LoadAbstraction.
func (a *Abstraction) Save(w io.Writer) error { return a.res.Save(w) }

// LoadAbstraction reads an abstraction previously written by Save and
// rebinds it to prog's allocation sites. It fails when the file belongs
// to a different program.
func LoadAbstraction(r io.Reader, prog *Program) (*Abstraction, error) {
	mom, total, err := core.LoadMOM(r, prog)
	if err != nil {
		return nil, err
	}
	// Reconstruct the summary counters from the loaded classes.
	classes := map[*lang.AllocSite]int{}
	for site, rep := range mom {
		if site != rep {
			classes[rep]++
		}
	}
	mergedAway := 0
	for _, extra := range classes {
		mergedAway += extra
	}
	res := &core.Result{MOM: mom, NumObjects: total, NumMerged: total - mergedAway}
	return &Abstraction{
		MOM:           mom,
		Objects:       total,
		MergedObjects: total - mergedAway,
		Classes:       len(classes),
		res:           res,
	}, nil
}

// SizeHistogram returns (class size, #classes) pairs (Figure 9).
func (a *Abstraction) SizeHistogram() [][2]int { return a.res.SizeHistogram() }

// ErrBudget is returned (wrapped) when a pipeline stage exhausts its
// deterministic work budget; test with errors.Is.
var ErrBudget = pta.ErrBudget

// ErrBudgetExhausted is returned (wrapped) when a pipeline stage
// exhausts a ResourceBudget; test with errors.Is. Unlike the legacy
// work budget (Config.BudgetWork → Report.Scalable=false, nil error),
// resource-budget exhaustion is a hard failure that callers may answer
// by degrading to the allocation-site abstraction.
var ErrBudgetExhausted = budget.ErrExhausted

// ResourceBudget caps the resources one pipeline run may consume; the
// zero value means unlimited. The three knobs bound, respectively,
// propagated points-to facts (solver work + FPG edge facts), live
// 64-bit words backing points-to bitsets, and automata-equivalence
// merge-pair tests. One budget covers ALL stages of a run: a solve
// that uses most of the fact budget leaves little for FPG
// construction, which is the point — the budget bounds the job, not
// each stage.
type ResourceBudget = budget.Limits

// InternalError is a panic recovered at a pipeline-stage boundary and
// converted into an error: a bug (or injected fault) in one stage
// fails that run with a typed, stage-attributed error instead of
// tearing down the process. Retrieve with errors.As to learn the stage
// and captured stack.
type InternalError = failure.InternalError

// TraceCtx attaches pipeline spans to a tracer (internal/trace). The
// zero value disables tracing. A typical traced run:
//
//	tr := mahjong.NewTracer()
//	abs, _ := mahjong.BuildAbstraction(p, mahjong.AbstractionOptions{Trace: tr.Root()})
//	rep, _ := mahjong.Analyze(p, mahjong.Config{Heap: mahjong.HeapMahjong, Abstraction: abs, Trace: tr.Root()})
//	tr.Snapshot().WriteJSON(os.Stdout)
type TraceCtx = trace.Ctx

// Tracer records the spans of one pipeline run; see TraceCtx.
type Tracer = trace.Tracer

// NewTracer returns an empty span tracer for TraceCtx.
func NewTracer() *Tracer { return trace.New() }

// BuildAbstraction runs the Mahjong pipeline of Figure 5: the fast
// context-insensitive pre-analysis, FPG construction, and the heap
// modeler (Algorithm 1).
func BuildAbstraction(p *Program, opts AbstractionOptions) (*Abstraction, error) {
	return BuildAbstractionContext(context.Background(), p, opts)
}

// BuildAbstractionContext is BuildAbstraction with cancellation: every
// pipeline stage (pre-analysis solver, parallel merge workers) checks
// ctx, and a cancelled or timed-out context aborts with an error
// wrapping context.Canceled or context.DeadlineExceeded.
func BuildAbstractionContext(ctx context.Context, p *Program, opts AbstractionOptions) (*Abstraction, error) {
	abs, _, _, err := buildPipeline(ctx, p, opts, nil, nil, nil, false)
	return abs, err
}

// Config selects the analysis of an Analyze run.
type Config struct {
	// Analysis is one of "ci", "2cs", "2type", "3type", "2obj", "3obj"
	// (any k works via KCallSite/KObject/KTypeSensitive below).
	Analysis string
	// Heap selects the abstraction; HeapMahjong requires Abstraction.
	Heap HeapKind
	// Abstraction is the result of BuildAbstraction (HeapMahjong only).
	Abstraction *Abstraction
	// BudgetWork caps propagation work (0 = unlimited); BudgetTime caps
	// wall-clock time. Exceeding either aborts with Report.Scalable=false.
	BudgetWork int64
	BudgetTime time.Duration
	// Resources caps what the run may consume (see ResourceBudget).
	// Unlike BudgetWork's partial-result semantics, exhaustion is a hard
	// failure: AnalyzeContext returns an error wrapping
	// ErrBudgetExhausted and no Report.
	Resources ResourceBudget
	// Trace, when enabled, records a "pta.solve" span for the main
	// analysis and a "clients.evaluate" span for client evaluation. The
	// zero value disables tracing; see AbstractionOptions.Trace.
	Trace TraceCtx
}

// Report is the outcome of Analyze.
type Report struct {
	// Scalable is false when the run exceeded its budget; Metrics are
	// only valid when Scalable.
	Scalable bool
	Time     time.Duration
	Work     int64
	// Metrics are the three type-dependent client results plus
	// reachable-method count.
	Metrics clients.Metrics
	// CSObjects and CSMethods measure context-sensitive analysis size.
	CSObjects, CSMethods int
	// Solver holds the solver's internal performance counters (graph
	// size, propagated facts, filter-mask usage); valid for every
	// run, including unscalable ones.
	Solver pta.Stats

	result *pta.Result
}

// Result exposes the underlying points-to result for advanced queries
// (points-to sets, call targets, reachable casts).
func (r *Report) Result() *pta.Result { return r.result }

// Analyze runs a points-to analysis with the three type-dependent
// clients on top.
func Analyze(p *Program, cfg Config) (*Report, error) {
	return AnalyzeContext(context.Background(), p, cfg)
}

// AnalyzeContext is Analyze with cancellation: the solver's worklist
// loop checks ctx alongside its Budget, and a cancelled or timed-out
// context aborts the run with an error wrapping context.Canceled or
// context.DeadlineExceeded (budget overruns still return a Report with
// Scalable=false and a nil error).
func AnalyzeContext(ctx context.Context, p *Program, cfg Config) (*Report, error) {
	sel, err := selectorFor(cfg.Analysis)
	if err != nil {
		return nil, err
	}
	var heap pta.HeapModel
	switch cfg.Heap {
	case HeapAllocSite, "":
		heap = pta.NewAllocSiteModel()
	case HeapAllocType:
		heap = pta.NewAllocTypeModel()
	case HeapMahjong:
		if cfg.Abstraction == nil {
			return nil, fmt.Errorf("mahjong: HeapMahjong requires Config.Abstraction")
		}
		heap = pta.NewMergedSiteModel(cfg.Abstraction.MOM)
	default:
		return nil, fmt.Errorf("mahjong: unknown heap kind %q", cfg.Heap)
	}
	r, err := pta.SolveContext(ctx, p, pta.Options{
		Selector: sel,
		Heap:     heap,
		Budget:   pta.Budget{Work: cfg.BudgetWork, Time: cfg.BudgetTime},
		Meter:    budget.NewMeter(cfg.Resources),
		Trace:    cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Scalable:  !r.Aborted,
		Time:      r.Duration,
		Work:      r.Work,
		CSObjects: r.NumCSObjs(),
		CSMethods: r.NumCSMethods(),
		Solver:    r.Stats(),
		result:    r,
	}
	if rep.Scalable {
		rep.Metrics, err = evaluateClients(r, cfg.Trace)
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// evaluateClients runs the three type-dependent clients behind the
// "clients.evaluate" stage guard: a bug in a client metric fails the
// run with an *InternalError instead of crashing the caller.
func evaluateClients(r *pta.Result, tc TraceCtx) (m clients.Metrics, err error) {
	// Span-close defer precedes the stage guard so it observes the
	// recovered error (see pta.SolveContext for the idiom).
	sp := tc.Start(faultinject.StageClients)
	defer func() { sp.Close(err) }()
	defer failure.Recover(faultinject.StageClients, &err)
	if err := faultinject.Fire(faultinject.StageClients); err != nil {
		return clients.Metrics{}, fmt.Errorf("mahjong: clients: %w", err)
	}
	m = clients.Evaluate(r)
	sp.Add("call_graph_edges", int64(m.CallGraphEdges))
	sp.Add("poly_call_sites", int64(m.PolyCallSites))
	sp.Add("may_fail_casts", int64(m.MayFailCasts))
	sp.Add("reachable_methods", int64(m.Reachable))
	sp.Add("escaping_sites", int64(m.EscapingSites))
	sp.Add("stack_alloc_sites", int64(m.StackAllocSites))
	sp.Add("may_null_loads", int64(m.MayNullLoads))
	sp.Add("tainted_sinks", int64(m.TaintedSinks))
	sp.Add("taint_sinks", int64(m.TaintSinks))
	return m, nil
}

// ValidAnalysis reports whether name is accepted by Config.Analysis
// ("", "ci", or any k-prefixed cs/obj/type sensitivity).
func ValidAnalysis(name string) bool {
	_, err := selectorFor(name)
	return err == nil
}

func selectorFor(name string) (pta.Selector, error) {
	switch name {
	case "", "ci":
		return pta.CI{}, nil
	}
	var k int
	var kind string
	if _, err := fmt.Sscanf(name, "%d%s", &k, &kind); err != nil || k < 1 {
		return nil, fmt.Errorf("mahjong: unknown analysis %q", name)
	}
	switch kind {
	case "cs":
		return pta.KCFA{K: k}, nil
	case "obj":
		return pta.KObj{K: k}, nil
	case "type":
		return pta.KType{K: k}, nil
	default:
		return nil, fmt.Errorf("mahjong: unknown analysis %q", name)
	}
}

// NewSuite returns the full experiment suite used by cmd/experiments
// and the root benchmarks.
func NewSuite() *bench.Suite { return bench.NewSuite() }
