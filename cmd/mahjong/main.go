// Command mahjong analyzes a program in the textual IR format:
//
//	mahjong -in=app.ir -analysis=2obj -heap=mahjong
//	mahjong -benchmark=pmd -analysis=3obj -heap=alloc-site -budget=1000000
//
// It builds the Mahjong heap abstraction (when -heap=mahjong), runs the
// requested points-to analysis, and prints the heap-abstraction and
// client statistics.
//
// Exit codes: 0 on success, 1 on misuse or analysis errors, and 3 when
// the run was stopped by resource exhaustion — a -budget overrun, an
// unscalable configuration, or a -timeout expiry. (2 is taken by the
// flag package for command-line parse errors.)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"mahjong"
	"mahjong/internal/export"
)

const (
	exitFailure   = 1 // misuse, I/O errors, analysis misconfiguration
	exitExhausted = 3 // budget or timeout exhaustion; 2 is flag's parse-error exit
)

func main() {
	in := flag.String("in", "", "input program (textual IR)")
	benchName := flag.String("benchmark", "", "analyze a built-in benchmark instead of -in (e.g. pmd)")
	analysis := flag.String("analysis", "ci", "analysis: ci, 2cs, 2type, 3type, 2obj, 3obj, or any k prefix")
	heap := flag.String("heap", "mahjong", "heap abstraction: alloc-site, alloc-type, mahjong")
	budget := flag.Int64("budget", 0, "work budget (0 = unlimited)")
	budgetFacts := flag.Int64("budget-facts", 0, "resource budget: propagated points-to facts (0 = unlimited)")
	budgetWords := flag.Int64("budget-words", 0, "resource budget: live points-to bitset words (0 = unlimited)")
	budgetPairs := flag.Int64("budget-pairs", 0, "resource budget: automata merge pairs (0 = unlimited)")
	degrade := flag.Bool("degrade", false, "fall back to -heap=alloc-site when building the Mahjong abstraction fails or exhausts its resource budget")
	workers := flag.Int("workers", 0, "parallel merge workers (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print per-class merge details")
	cgOut := flag.String("callgraph", "", "write the call graph to this file (.dot or .json by extension)")
	saveAbs := flag.String("save-abstraction", "", "write the built Mahjong abstraction to this JSON file")
	loadAbs := flag.String("load-abstraction", "", "reuse a previously saved abstraction instead of rebuilding it")
	timeout := flag.Duration("timeout", 0, "wall-clock deadline for the whole run, e.g. 30s (0 = none)")
	stats := flag.Bool("stats", false, "print solver performance counters after the analysis")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	traceOut := flag.String("trace", "", "write a JSON span trace of the pipeline to this file (docs/OBSERVABILITY.md)")
	version := flag.Bool("version", false, "print the version and exit")
	flag.Parse()

	if *version {
		fmt.Println("mahjong", mahjong.Version)
		return
	}

	// The trace is written on every exit path — fail() and the
	// exhaustion exit call flushTrace explicitly because os.Exit skips
	// defers; the deferred call covers the normal return.
	var tctx mahjong.TraceCtx
	if *traceOut != "" {
		tracer := mahjong.NewTracer()
		tctx = tracer.Root()
		out := *traceOut
		traceSink = func() {
			if err := writeTrace(out, tracer); err != nil {
				fmt.Fprintln(os.Stderr, "mahjong: writing trace:", err)
			}
		}
		defer flushTrace()
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			runtime.GC() // flush recently-freed objects out of the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(err)
			}
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	prog, err := load(*in, *benchName)
	if err != nil {
		fail(err)
	}
	st := prog.Stats()
	fmt.Printf("program: %d classes, %d methods, %d statements, %d allocation sites\n",
		st.Classes, st.Methods, st.Stmts, st.AllocSites)

	resources := mahjong.ResourceBudget{
		Facts:       *budgetFacts,
		BitsetWords: *budgetWords,
		MergePairs:  *budgetPairs,
	}
	cfg := mahjong.Config{
		Analysis:   *analysis,
		Heap:       mahjong.HeapKind(*heap),
		BudgetWork: *budget,
		Resources:  resources,
		Trace:      tctx,
	}
	if cfg.Heap == mahjong.HeapMahjong {
		abs, err := obtainAbstraction(ctx, prog, *loadAbs, *workers, resources, tctx)
		switch {
		case err == nil:
			cfg.Abstraction = abs
		case *degrade && degradable(err):
			// Graceful degradation: the alloc-site abstraction is the
			// sound baseline, merely less compact — keep going on it.
			fmt.Fprintf(os.Stderr, "mahjong: abstraction failed (%v); degrading to -heap=alloc-site\n", err)
			cfg.Heap = mahjong.HeapAllocSite
		default:
			fail(err)
		}
	}
	if cfg.Heap == mahjong.HeapMahjong {
		abs := cfg.Abstraction
		if *saveAbs != "" {
			if err := saveAbstraction(*saveAbs, abs); err != nil {
				fail(err)
			}
			fmt.Println("abstraction written to", *saveAbs)
		}
		fmt.Printf("mahjong: %d objects -> %d merged objects (%.0f%% reduction)\n",
			abs.Objects, abs.MergedObjects, abs.Reduction()*100)
		fmt.Printf("mahjong: pre-analysis %v, FPG %v, heap modeling %v\n",
			abs.PreTime.Round(1e5), abs.FPGTime.Round(1e5), abs.ModelTime.Round(1e5))
		if *verbose {
			for _, sc := range abs.SizeHistogram() {
				fmt.Printf("  class size %4d: %d classes\n", sc[0], sc[1])
			}
		}
	}

	rep, err := mahjong.AnalyzeContext(ctx, prog, cfg)
	if err != nil {
		fail(err)
	}
	if !rep.Scalable {
		fmt.Printf("%s/%s: UNSCALABLE within budget (%d work units)\n", *analysis, cfg.Heap, rep.Work)
		if *stats {
			printSolverStats(rep)
		}
		flushTrace()
		os.Exit(exitExhausted)
	}
	fmt.Printf("%s/%s: %v, %d work units, %d cs-objects, %d cs-methods\n",
		*analysis, cfg.Heap, rep.Time.Round(1e5), rep.Work, rep.CSObjects, rep.CSMethods)
	fmt.Printf("clients: %d call-graph edges, %d poly call sites, %d may-fail casts, %d reachable methods\n",
		rep.Metrics.CallGraphEdges, rep.Metrics.PolyCallSites, rep.Metrics.MayFailCasts, rep.Metrics.Reachable)
	fmt.Printf("clients: %d escaping / %d stackable sites, %d may-null loads, %d/%d tainted sinks\n",
		rep.Metrics.EscapingSites, rep.Metrics.StackAllocSites, rep.Metrics.MayNullLoads,
		rep.Metrics.TaintedSinks, rep.Metrics.TaintSinks)
	if *stats {
		printSolverStats(rep)
	}

	if *cgOut != "" {
		if err := writeCallGraph(*cgOut, rep); err != nil {
			fail(err)
		}
		fmt.Println("call graph written to", *cgOut)
	}
}

// printSolverStats dumps the solver's internal performance counters
// (-stats).
func printSolverStats(rep *mahjong.Report) {
	s := rep.Solver
	fmt.Printf("solver: %d nodes, %d edges (%d copy), worklist peak %d\n",
		s.Nodes, s.Edges, s.CopyEdges, s.WorklistPeak)
	fmt.Printf("solver: %d propagated facts\n", s.PropagatedBits)
	fmt.Printf("solver: %d filter masks built, %d mask-filtered propagations\n",
		s.FilterMasks, s.FilterMaskHits)
}

// writeCallGraph exports the call graph in the format implied by the
// file extension (.json for JSON, anything else for DOT).
func writeCallGraph(path string, rep *mahjong.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if len(path) > 5 && path[len(path)-5:] == ".json" {
		return export.CallGraphJSON(f, rep.Result())
	}
	return export.CallGraphDOT(f, rep.Result())
}

// degradable reports whether err is answered by falling back to the
// allocation-site abstraction: an internal (panic-recovered) pipeline
// error or resource-budget exhaustion. Deadline and cancellation
// errors are not — the run is out of time either way.
func degradable(err error) bool {
	var ie *mahjong.InternalError
	if errors.As(err, &ie) {
		return true
	}
	return errors.Is(err, mahjong.ErrBudgetExhausted)
}

// obtainAbstraction loads a persisted abstraction when a path is given,
// otherwise builds one from scratch.
func obtainAbstraction(ctx context.Context, prog *mahjong.Program, loadPath string, workers int, resources mahjong.ResourceBudget, tctx mahjong.TraceCtx) (*mahjong.Abstraction, error) {
	if loadPath == "" {
		return mahjong.BuildAbstractionContext(ctx, prog, mahjong.AbstractionOptions{
			Workers:   workers,
			Resources: resources,
			Trace:     tctx,
		})
	}
	f, err := os.Open(loadPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return mahjong.LoadAbstraction(f, prog)
}

func saveAbstraction(path string, abs *mahjong.Abstraction) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return abs.Save(f)
}

func load(in, benchName string) (*mahjong.Program, error) {
	switch {
	case in != "" && benchName != "":
		return nil, fmt.Errorf("use either -in or -benchmark, not both")
	case in != "":
		return mahjong.LoadProgram(in)
	case benchName != "":
		return mahjong.GenerateBenchmark(benchName)
	default:
		return nil, fmt.Errorf("missing -in or -benchmark (available: %v)", mahjong.BenchmarkNames())
	}
}

// traceSink, when -trace is set, writes the run's span trace; flushTrace
// runs it at most once so the success defer and the explicit calls on
// os.Exit paths cannot double-write.
var traceSink func()

func flushTrace() {
	if traceSink != nil {
		traceSink()
		traceSink = nil
	}
}

// writeTrace exports the tracer's spans as deterministic JSON.
func writeTrace(path string, tracer *mahjong.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tracer.Snapshot().WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// fail reports err and exits: code 3 when the error is exhaustion (a
// work- or resource-budget overrun or an expired -timeout deadline),
// 1 otherwise.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "mahjong:", err)
	flushTrace()
	if errors.Is(err, mahjong.ErrBudget) ||
		errors.Is(err, mahjong.ErrBudgetExhausted) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) {
		os.Exit(exitExhausted)
	}
	os.Exit(exitFailure)
}
