package mahjong_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mahjong"
	"mahjong/internal/bench"
)

const figure1IR = `
class A {
  field f: A
  method foo(): void { return }
}
class B extends A {
  method foo(): void { return }
}
class C extends A {
  method foo(): void { return }
}
class Main {
  static method main(): void {
    var x: A
    var y: A
    var z: A
    var a: A
    var c: C
    var t4: A
    var t5: A
    var t6: A
    x = new A
    y = new A
    z = new A
    t4 = new B
    x.f = t4
    t5 = new C
    y.f = t5
    t6 = new C
    z.f = t6
    a = z.f
    a.foo()
    c = (C) a
    return
  }
}
entry Main.main/0
`

func TestParseAndAnalyze(t *testing.T) {
	prog, err := mahjong.ParseProgram("fig1.ir", figure1IR)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := mahjong.BuildAbstraction(prog, mahjong.AbstractionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if abs.Objects != 6 || abs.MergedObjects != 4 {
		t.Fatalf("merge %d→%d, want 6→4", abs.Objects, abs.MergedObjects)
	}
	if abs.Classes != 2 {
		t.Fatalf("classes=%d want 2", abs.Classes)
	}
	rep, err := mahjong.Analyze(prog, mahjong.Config{
		Analysis: "ci", Heap: mahjong.HeapMahjong, Abstraction: abs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.PolyCallSites != 0 || rep.Metrics.MayFailCasts != 0 {
		t.Fatalf("precision lost: %+v", rep.Metrics)
	}
}

func TestLoadProgram(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig1.ir")
	if err := os.WriteFile(path, []byte(figure1IR), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := mahjong.LoadProgram(path)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Stats().AllocSites != 6 {
		t.Fatalf("sites=%d", prog.Stats().AllocSites)
	}
	if _, err := mahjong.LoadProgram(filepath.Join(dir, "missing.ir")); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestPrintProgramRoundTrip(t *testing.T) {
	prog, err := mahjong.ParseProgram("fig1.ir", figure1IR)
	if err != nil {
		t.Fatal(err)
	}
	text := mahjong.PrintProgram(prog)
	prog2, err := mahjong.ParseProgram("printed.ir", text)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if prog.Stats() != prog2.Stats() {
		t.Fatal("stats changed through round trip")
	}
}

func TestGenerateBenchmark(t *testing.T) {
	names := mahjong.BenchmarkNames()
	if len(names) != 12 {
		t.Fatalf("benchmarks=%d", len(names))
	}
	prog, err := mahjong.GenerateBenchmark("luindex")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Stats().AllocSites < 100 {
		t.Fatal("luindex too small")
	}
	if _, err := mahjong.GenerateBenchmark("not-a-benchmark"); err == nil {
		t.Fatal("want error")
	}
}

func TestAnalysisSelectors(t *testing.T) {
	prog, err := mahjong.ParseProgram("fig1.ir", figure1IR)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "ci", "1cs", "2cs", "2obj", "3obj", "2type", "3type", "4obj"} {
		rep, err := mahjong.Analyze(prog, mahjong.Config{Analysis: name})
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if !rep.Scalable {
			t.Fatalf("%q: not scalable on figure 1", name)
		}
		if rep.Metrics.Reachable == 0 {
			t.Fatalf("%q: no reachable methods", name)
		}
	}
	for _, bad := range []string{"2foo", "xobj", "0obj", "-1cs", "obj"} {
		if _, err := mahjong.Analyze(prog, mahjong.Config{Analysis: bad}); err == nil {
			t.Fatalf("%q should be rejected", bad)
		}
	}
}

func TestHeapKinds(t *testing.T) {
	prog, err := mahjong.ParseProgram("fig1.ir", figure1IR)
	if err != nil {
		t.Fatal(err)
	}
	// Mahjong heap without abstraction is an error.
	if _, err := mahjong.Analyze(prog, mahjong.Config{Heap: mahjong.HeapMahjong}); err == nil {
		t.Fatal("HeapMahjong without Abstraction should fail")
	}
	if _, err := mahjong.Analyze(prog, mahjong.Config{Heap: "bogus"}); err == nil {
		t.Fatal("unknown heap should fail")
	}
	// Alloc-type loses precision on figure 1.
	rep, err := mahjong.Analyze(prog, mahjong.Config{Heap: mahjong.HeapAllocType})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.PolyCallSites != 1 || rep.Metrics.MayFailCasts != 1 {
		t.Fatalf("alloc-type metrics %+v, want 1 poly and 1 may-fail", rep.Metrics)
	}
}

func TestBudgetAbortReport(t *testing.T) {
	prog, err := mahjong.GenerateBenchmark("luindex")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mahjong.Analyze(prog, mahjong.Config{Analysis: "2obj", BudgetWork: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scalable {
		t.Fatal("expected budget abort")
	}
}

func TestAbstractionStatistics(t *testing.T) {
	prog, err := mahjong.GenerateBenchmark("luindex")
	if err != nil {
		t.Fatal(err)
	}
	abs, err := mahjong.BuildAbstraction(prog, mahjong.AbstractionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if abs.Reduction() <= 0 {
		t.Fatal("no reduction on luindex")
	}
	hist := abs.SizeHistogram()
	if len(hist) == 0 {
		t.Fatal("empty histogram")
	}
	if abs.PreTime <= 0 || abs.ModelTime <= 0 {
		t.Fatal("missing pipeline timings")
	}
}

func TestAblationOptionsPreserveResults(t *testing.T) {
	prog, err := mahjong.GenerateBenchmark("luindex")
	if err != nil {
		t.Fatal(err)
	}
	base, err := mahjong.BuildAbstraction(prog, mahjong.AbstractionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The null ablation may only coarsen (merge at least as much).
	noNull, err := mahjong.BuildAbstraction(prog, mahjong.AbstractionOptions{OmitNullNode: true})
	if err != nil {
		t.Fatal(err)
	}
	if noNull.MergedObjects > base.MergedObjects {
		t.Fatalf("omitting null should not split classes: %d vs %d", noNull.MergedObjects, base.MergedObjects)
	}
}

func TestReportResultAccess(t *testing.T) {
	prog, err := mahjong.ParseProgram("fig1.ir", figure1IR)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mahjong.Analyze(prog, mahjong.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Result()
	if res == nil {
		t.Fatal("nil result")
	}
	if len(res.ReachableInvokes()) != 1 {
		t.Fatalf("invokes=%d", len(res.ReachableInvokes()))
	}
	if len(res.ReachableCasts()) != 1 {
		t.Fatalf("casts=%d", len(res.ReachableCasts()))
	}
}

// TestSuiteAccessor checks that the experiment suite behind
// cmd/experiments covers exactly the benchmarks the facade generates,
// and that a one-program figure renders.
func TestSuiteAccessor(t *testing.T) {
	s := bench.NewSuite()
	names := mahjong.BenchmarkNames()
	if len(s.Programs) != 12 || strings.Join(s.Programs, ",") != strings.Join(names, ",") {
		t.Fatalf("suite programs %v, facade benchmarks %v", s.Programs, names)
	}
	s.Programs = []string{"luindex"}
	s.Repeat = 1
	var sb strings.Builder
	if err := s.Fig8(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "luindex") {
		t.Fatal("Fig8 output missing program")
	}
}

func TestAbstractionSaveLoad(t *testing.T) {
	prog, err := mahjong.GenerateBenchmark("luindex")
	if err != nil {
		t.Fatal(err)
	}
	abs, err := mahjong.BuildAbstraction(prog, mahjong.AbstractionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := abs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := mahjong.LoadAbstraction(strings.NewReader(buf.String()), prog)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Objects != abs.Objects || loaded.MergedObjects != abs.MergedObjects {
		t.Fatalf("counters drifted: %d/%d vs %d/%d",
			loaded.Objects, loaded.MergedObjects, abs.Objects, abs.MergedObjects)
	}
	// Analyses with the loaded abstraction give identical metrics.
	r1, err := mahjong.Analyze(prog, mahjong.Config{Analysis: "2obj", Heap: mahjong.HeapMahjong, Abstraction: abs})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mahjong.Analyze(prog, mahjong.Config{Analysis: "2obj", Heap: mahjong.HeapMahjong, Abstraction: loaded})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Metrics != r2.Metrics {
		t.Fatalf("metrics differ after reload: %+v vs %+v", r1.Metrics, r2.Metrics)
	}
	// Loading into a different program fails.
	other, err := mahjong.GenerateBenchmark("fop")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mahjong.LoadAbstraction(strings.NewReader(buf.String()), other); err == nil {
		t.Fatal("cross-program load must fail")
	}
}
