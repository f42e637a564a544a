// Root benchmarks: one testing.B target per table and figure of the
// paper's evaluation, plus ablation benches for the design choices
// called out in DESIGN.md. Run everything with:
//
//	go test -bench=. -benchmem
//
// Naming follows the experiment index in DESIGN.md:
//
//	BenchmarkPreAnalysis      §6.1.1 pipeline cost (per program)
//	BenchmarkFig8             object-count reduction (per program)
//	BenchmarkFig9             equivalence-class histogram (checkstyle)
//	BenchmarkTable1           sample equivalence classes (checkstyle)
//	BenchmarkMotivationPmd    §2.1: 3obj vs T-3obj vs M-3obj on pmd
//	BenchmarkTable2           main grid (per program × analysis × heap)
//	BenchmarkAblation*        §5 optimizations and §3.6.2 choices
package mahjong_test

import (
	"testing"

	"mahjong"
	"mahjong/internal/bench"
	"mahjong/internal/core"
	"mahjong/internal/fpg"
	"mahjong/internal/synth"
)

// smallPrograms keeps per-iteration benches affordable; the full grid
// uses every program.
var smallPrograms = []string{"luindex", "lusearch", "antlr", "fop"}

// prepared caches pipeline results across benchmarks.
var prepared = map[string]*bench.Program{}

func prepare(b *testing.B, name string) *bench.Program {
	b.Helper()
	if p, ok := prepared[name]; ok {
		return p
	}
	p, err := bench.Prepare(name)
	if err != nil {
		b.Fatal(err)
	}
	prepared[name] = p
	return p
}

// BenchmarkPreAnalysis measures the full §6.1.1 pre-analysis pipeline
// (ci Andersen + FPG + Mahjong heap modeling) per program, through the
// same bench.Pipeline helper the harness uses — the pipeline is defined
// once, not re-inlined here.
func BenchmarkPreAnalysis(b *testing.B) {
	for _, name := range synth.ProfileNames() {
		prof, err := synth.ProfileByName(name)
		if err != nil {
			b.Fatal(err)
		}
		prog := synth.MustGenerate(prof)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := bench.Pipeline(prog)
				if err != nil {
					b.Fatal(err)
				}
				if r.Mahjong.NumMerged == 0 {
					b.Fatal("no objects")
				}
			}
		})
	}
}

// BenchmarkFig8 measures heap modeling alone and reports the Figure 8
// statistic (object reduction) per program.
func BenchmarkFig8(b *testing.B) {
	for _, name := range synth.ProfileNames() {
		p := prepare(b, name)
		b.Run(name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = core.Build(p.Graph, core.Options{})
			}
			b.ReportMetric(float64(res.NumObjects), "objs/alloc-site")
			b.ReportMetric(float64(res.NumMerged), "objs/mahjong")
			b.ReportMetric(res.Reduction()*100, "reduction%")
		})
	}
}

// BenchmarkFig9 regenerates the checkstyle equivalence-class size
// histogram and reports its extremes.
func BenchmarkFig9(b *testing.B) {
	p := prepare(b, "checkstyle")
	var hist [][2]int
	for i := 0; i < b.N; i++ {
		hist = core.Build(p.Graph, core.Options{}).SizeHistogram()
	}
	if len(hist) == 0 {
		b.Fatal("empty histogram")
	}
	b.ReportMetric(float64(hist[0][1]), "singleton-classes")
	b.ReportMetric(float64(hist[len(hist)-1][0]), "largest-class")
}

// BenchmarkTable1 regenerates the checkstyle sample-class table.
func BenchmarkTable1(b *testing.B) {
	p := prepare(b, "checkstyle")
	for i := 0; i < b.N; i++ {
		res := core.Build(p.Graph, core.Options{})
		if len(res.Classes) == 0 || res.Classes[0].Size() < 2 {
			b.Fatal("expected a large merged class at rank 1")
		}
	}
}

// BenchmarkMotivationPmd reproduces §2.1: pmd under 3obj with the
// allocation-site, allocation-type and Mahjong abstractions.
func BenchmarkMotivationPmd(b *testing.B) {
	p := prepare(b, "pmd")
	a3, err := bench.AnalysisByName("3obj")
	if err != nil {
		b.Fatal(err)
	}
	for _, heap := range []bench.HeapKind{bench.HeapAllocSite, bench.HeapAllocType, bench.HeapMahjong} {
		b.Run(string(heap), func(b *testing.B) {
			var c bench.Cell
			for i := 0; i < b.N; i++ {
				c = p.RunCell(a3, heap, 1<<40) // uncapped, as in the paper's pmd numbers
			}
			b.ReportMetric(float64(c.Metrics.CallGraphEdges), "call-edges")
			b.ReportMetric(float64(c.Work), "work")
		})
	}
}

// BenchmarkTable2 runs the main grid on the small tier (every analysis
// finishes) so `go test -bench` stays fast; cmd/experiments produces
// the full 12-program table.
func BenchmarkTable2(b *testing.B) {
	for _, name := range smallPrograms {
		p := prepare(b, name)
		for _, a := range bench.Analyses() {
			for _, heap := range []bench.HeapKind{bench.HeapAllocSite, bench.HeapMahjong} {
				b.Run(name+"/"+a.Name+"/"+string(heap), func(b *testing.B) {
					var c bench.Cell
					for i := 0; i < b.N; i++ {
						c = p.RunCell(a, heap, 0)
					}
					if !c.Scalable {
						b.Fatalf("%s/%s/%s not scalable", name, a.Name, heap)
					}
					b.ReportMetric(float64(c.Work), "work")
					b.ReportMetric(float64(c.Metrics.CallGraphEdges), "call-edges")
				})
			}
		}
	}
}

// BenchmarkAblationSharedAutomata compares heap modeling with and
// without the §5 shared-automata optimization.
func BenchmarkAblationSharedAutomata(b *testing.B) {
	p := prepare(b, "luindex")
	for _, cfg := range []struct {
		name    string
		disable bool
	}{{"shared", false}, {"unshared", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Build(p.Graph, core.Options{DisableSharing: cfg.disable})
			}
		})
	}
}

// BenchmarkAblationParallelism compares 1..8 merge workers (§5
// synchronization-free parallel type-consistency checks).
func BenchmarkAblationParallelism(b *testing.B) {
	p := prepare(b, "eclipse") // largest merge load
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(string(rune('0'+workers))+"workers", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.Build(p.Graph, core.Options{Workers: workers})
			}
		})
	}
}

// BenchmarkAblationRepresentative compares the representative policies
// of §3.6.2/Example 3.2 under M-2type.
func BenchmarkAblationRepresentative(b *testing.B) {
	prog, err := mahjong.GenerateBenchmark("checkstyle")
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name    string
		diverse bool
	}{{"first", false}, {"type-diverse", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			var edges int
			for i := 0; i < b.N; i++ {
				abs, err := mahjong.BuildAbstraction(prog, mahjong.AbstractionOptions{TypeDiverseReps: cfg.diverse})
				if err != nil {
					b.Fatal(err)
				}
				rep, err := mahjong.Analyze(prog, mahjong.Config{
					Analysis: "2type", Heap: mahjong.HeapMahjong, Abstraction: abs,
				})
				if err != nil {
					b.Fatal(err)
				}
				edges = rep.Metrics.CallGraphEdges
			}
			b.ReportMetric(float64(edges), "call-edges")
		})
	}
}

// BenchmarkAblationNullNode compares heap modeling with and without the
// null node in the FPG (Example 3.1 / Table 1 row 6).
func BenchmarkAblationNullNode(b *testing.B) {
	p := prepare(b, "checkstyle")
	for _, cfg := range []struct {
		name string
		omit bool
	}{{"with-null", false}, {"omit-null", true}} {
		g := fpg.Build(p.Pre, fpg.Options{OmitNullNode: cfg.omit})
		b.Run(cfg.name, func(b *testing.B) {
			var merged int
			for i := 0; i < b.N; i++ {
				merged = core.Build(g, core.Options{}).NumMerged
			}
			b.ReportMetric(float64(merged), "merged-objects")
		})
	}
}
