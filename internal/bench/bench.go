// Package bench is the experiment harness: it prepares benchmark
// programs (generate → pre-analysis → FPG → Mahjong heap modeling),
// runs (program × analysis × heap abstraction) cells under a
// deterministic budget, and formats every table and figure of the
// paper's evaluation (§6): Table 1, Table 2, Figure 8, Figure 9, the
// pre-analysis statistics, and the §2.1 pmd motivation numbers.
package bench

import (
	"fmt"
	"time"

	"mahjong/internal/clients"
	"mahjong/internal/core"
	"mahjong/internal/fpg"
	"mahjong/internal/lang"
	"mahjong/internal/pta"
	"mahjong/internal/synth"
)

// DefaultBudget is the deterministic work cap standing in for the
// paper's 5-hour wall-clock budget. Cells exceeding it are reported
// unscalable, exactly like the paper's "—" entries.
const DefaultBudget int64 = 160_000

// HeapKind selects the heap abstraction of a cell.
type HeapKind string

const (
	HeapAllocSite HeapKind = "alloc-site"
	HeapAllocType HeapKind = "alloc-type"
	HeapMahjong   HeapKind = "mahjong"
)

// Analysis is one context-sensitivity configuration of Table 2.
type Analysis struct {
	Name string
	Make func() pta.Selector
}

// Analyses returns the paper's analysis lineup: the context-insensitive
// baseline plus the five context-sensitive analyses of §6.2.1.
func Analyses() []Analysis {
	return []Analysis{
		{"ci", func() pta.Selector { return pta.CI{} }},
		{"2cs", func() pta.Selector { return pta.KCFA{K: 2} }},
		{"2type", func() pta.Selector { return pta.KType{K: 2} }},
		{"3type", func() pta.Selector { return pta.KType{K: 3} }},
		{"2obj", func() pta.Selector { return pta.KObj{K: 2} }},
		{"3obj", func() pta.Selector { return pta.KObj{K: 3} }},
	}
}

// AnalysisByName returns the named analysis configuration.
func AnalysisByName(name string) (Analysis, error) {
	for _, a := range Analyses() {
		if a.Name == name {
			return a, nil
		}
	}
	return Analysis{}, fmt.Errorf("bench: unknown analysis %q", name)
}

// Program bundles everything the harness precomputes per benchmark.
type Program struct {
	Name string
	Prog *lang.Program

	Pre     *pta.Result
	Graph   *fpg.Graph
	Mahjong *core.Result

	PreTime     time.Duration // ci pre-analysis
	FPGTime     time.Duration // FPG construction
	MahjongTime time.Duration // heap modeling (Algorithm 1)

	// NFA size statistics over FPG objects (§6.1.1).
	AvgNFASize float64
	MaxNFASize int
}

// Prepare generates the named benchmark and runs the Mahjong
// pre-analysis pipeline on it.
func Prepare(name string) (*Program, error) {
	prof, err := synth.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	prog, err := synth.Generate(prof)
	if err != nil {
		return nil, err
	}
	return PrepareProgram(name, prog)
}

// PrepareProgram runs the §6.1.1 pre-analysis pipeline on an arbitrary
// program: the context-insensitive Andersen solve, the field points-to
// graph and the Mahjong heap modeling, each timed.
func PrepareProgram(name string, prog *lang.Program) (*Program, error) {
	p := &Program{Name: name, Prog: prog}
	t0 := time.Now()
	pre, err := pta.Solve(prog, pta.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: pre-analysis: %w", name, err)
	}
	if pre.Aborted {
		return nil, fmt.Errorf("%s: pre-analysis aborted", name)
	}
	p.Pre, p.PreTime = pre, time.Since(t0)

	t1 := time.Now()
	p.Graph = fpg.Build(pre, fpg.Options{})
	p.FPGTime = time.Since(t1)

	p.Mahjong = core.Build(p.Graph, core.Options{})
	p.MahjongTime = p.Mahjong.Duration

	total, max := 0, 0
	for id := 1; id < len(p.Graph.Objs); id++ {
		n := p.Graph.NFASize(id)
		total += n
		if n > max {
			max = n
		}
	}
	if p.Graph.NumObjects() > 0 {
		p.AvgNFASize = float64(total) / float64(p.Graph.NumObjects())
	}
	p.MaxNFASize = max
	return p, nil
}

// Cell is one measured (program, analysis, heap) point of Table 2.
type Cell struct {
	Program  string
	Analysis string
	Heap     HeapKind

	Scalable bool
	Time     time.Duration
	Work     int64
	CSObjs   int
	Metrics  clients.Metrics
}

// heapModel instantiates a fresh heap model of the requested kind.
func (p *Program) heapModel(kind HeapKind) pta.HeapModel {
	switch kind {
	case HeapAllocSite:
		return pta.NewAllocSiteModel()
	case HeapAllocType:
		return pta.NewAllocTypeModel()
	case HeapMahjong:
		return pta.NewMergedSiteModel(p.Mahjong.MOM)
	default:
		panic("bench: unknown heap kind " + string(kind))
	}
}

// RunCell runs one analysis cell under the given work budget
// (0 = DefaultBudget).
func (p *Program) RunCell(a Analysis, heap HeapKind, budget int64) Cell {
	if budget == 0 {
		budget = DefaultBudget
	}
	r, err := pta.Solve(p.Prog, pta.Options{
		Selector: a.Make(),
		Heap:     p.heapModel(heap),
		Budget:   pta.Budget{Work: budget},
	})
	if err != nil {
		panic("bench: " + err.Error()) // programs are pre-validated
	}
	c := Cell{
		Program:  p.Name,
		Analysis: a.Name,
		Heap:     heap,
		Scalable: !r.Aborted,
		Time:     r.Duration,
		Work:     r.Work,
		CSObjs:   r.NumCSObjs(),
	}
	if c.Scalable {
		c.Metrics = clients.Evaluate(r)
	}
	return c
}
