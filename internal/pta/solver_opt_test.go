package pta

import (
	"fmt"
	"sort"
	"testing"

	"mahjong/internal/lang"
	"mahjong/internal/synth"
)

// buildSelfLoadChain builds the program that exposed the replayBase
// mutation-during-iteration bug:
//
//	n1 = new A; n2 = new A; n3 = new A
//	n1.f = n2; n2.f = n3
//	x = n1
//	x = x.f        // lhs and base are the same variable
//
// The load both reads x's set and grows it, so replaying the base set
// while iterating it live would skip elements (or loop). At the
// fixpoint x must point to all three objects.
func buildSelfLoadChain(t *testing.T) (*lang.Program, *lang.Var) {
	t.Helper()
	p := lang.NewProgram()
	a := p.NewClass("A", nil)
	f := a.NewField("f", a)
	mainCls := p.NewClass("Main", nil)
	m := mainCls.NewMethod("main", true, nil, nil)
	n1 := m.NewVar("n1", a)
	n2 := m.NewVar("n2", a)
	n3 := m.NewVar("n3", a)
	x := m.NewVar("x", a)
	m.AddAlloc(n1, a)
	m.AddAlloc(n2, a)
	m.AddAlloc(n3, a)
	m.AddStore(n1, f, n2)
	m.AddStore(n2, f, n3)
	m.AddCopy(x, n1)
	m.AddLoad(x, x, f) // x = x.f
	m.AddReturn(nil)
	p.SetEntry(m)
	if err := p.Validate(); err != nil {
		t.Fatalf("program invalid: %v", err)
	}
	return p, x
}

func TestSelfLoadReplayRegression(t *testing.T) {
	for _, noOpt := range []bool{false, true} {
		prog, x := buildSelfLoadChain(t)
		r, err := Solve(prog, Options{NoOpt: noOpt})
		if err != nil {
			t.Fatalf("Solve(noOpt=%v): %v", noOpt, err)
		}
		objs := r.VarObjs(x)
		if len(objs) != 3 {
			t.Fatalf("noOpt=%v: x points to %d objects (%v), want 3", noOpt, len(objs), objs)
		}
	}
}

// buildCopyCycle builds a program whose n variables form one large
// filter-free copy cycle fed by a single allocation, with a load/store
// pair hanging off one member so that merged varInfos keep firing.
func buildCopyCycle(t *testing.T, n int) (*lang.Program, []*lang.Var, *lang.Var) {
	t.Helper()
	p := lang.NewProgram()
	a := p.NewClass("A", nil)
	f := a.NewField("f", a)
	mainCls := p.NewClass("Main", nil)
	m := mainCls.NewMethod("main", true, nil, nil)
	vars := make([]*lang.Var, n)
	for i := range vars {
		vars[i] = m.NewVar(fmt.Sprintf("v%d", i), a)
	}
	m.AddAlloc(vars[0], a)
	for i := range vars {
		m.AddCopy(vars[(i+1)%n], vars[i])
	}
	// A store and a load through a cycle member: the field points-to
	// relation must survive the member being folded into a rep.
	other := m.NewVar("other", a)
	out := m.NewVar("out", a)
	m.AddAlloc(other, a)
	m.AddStore(vars[n/2], f, other)
	m.AddLoad(out, vars[n/3], f)
	m.AddReturn(nil)
	p.SetEntry(m)
	if err := p.Validate(); err != nil {
		t.Fatalf("program invalid: %v", err)
	}
	return p, vars, out
}

func TestCopyCycleCollapse(t *testing.T) {
	// 4*sccMinTrigger copy edges guarantees the lazy trigger fires.
	prog, vars, out := buildCopyCycle(t, 4*sccMinTrigger)
	r, err := Solve(prog, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	st := r.Stats()
	if st.CollapsedSCCs < 1 {
		t.Fatalf("no SCC collapsed: %+v", st)
	}
	if st.CollapsedNodes < len(vars)-1 {
		t.Fatalf("collapsed %d nodes, want >= %d", st.CollapsedNodes, len(vars)-1)
	}
	for _, v := range vars {
		objs := r.VarObjs(v)
		if len(objs) != 1 {
			t.Fatalf("%s points to %d objects, want 1 (the allocation circulating the cycle)", v.Name, len(objs))
		}
	}
	if objs := r.VarObjs(out); len(objs) != 1 {
		t.Fatalf("out points to %d objects, want 1 (field load through collapsed node)", len(objs))
	}

	// The NoOpt run must agree object-for-object and report no collapses.
	rn, err := Solve(prog, Options{NoOpt: true})
	if err != nil {
		t.Fatalf("Solve(NoOpt): %v", err)
	}
	if sn := rn.Stats(); sn.CollapsedSCCs != 0 || sn.SCCPasses != 0 || sn.FilterMaskHits != 0 {
		t.Fatalf("NoOpt run used optimizations: %+v", sn)
	}
	for _, v := range append(vars, out) {
		if got, want := varSiteLabels(r, v), varSiteLabels(rn, v); !equalStrings(got, want) {
			t.Fatalf("%s: opt=%v noopt=%v", v.Name, got, want)
		}
	}
}

// TestFilterMasksMatchSubtypeOf cross-checks every class mask the
// solver built against the per-bit SubtypeOf test it replaces.
func TestFilterMasksMatchSubtypeOf(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		prog := synth.RandomProgram(seed)
		r, err := Solve(prog, Options{})
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		s := r.solver
		if len(s.masks) == 0 {
			continue // program happened to have no reachable casts
		}
		for cid, m := range s.masks {
			if m == nil {
				continue
			}
			cls := prog.Classes[cid]
			if m.upTo > len(s.csobjs) {
				t.Fatalf("seed %d: mask %s covers %d of %d interned objects", seed, cls.Name, m.upTo, len(s.csobjs))
			}
			for id := range m.upTo {
				want := s.csobjs[id].Obj.Type.SubtypeOf(cls)
				if got := m.set.Contains(id); got != want {
					t.Fatalf("seed %d: mask %s bit %d (%s) = %v, SubtypeOf = %v",
						seed, cls.Name, id, s.csobjs[id], got, want)
				}
			}
		}
	}
}

// varSiteLabels projects a variable's points-to set onto stable
// allocation-site labels. Obj and CSObj IDs depend on interning order,
// which the optimizations may permute, so equivalence checks must
// compare through the underlying lang.AllocSite identities instead.
func varSiteLabels(r *Result, v *lang.Var) []string {
	var out []string
	for _, o := range r.VarObjs(v) {
		out = append(out, o.Rep.Label)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// castKey is a stable identity for a reachable cast's incoming set.
func castSets(r *Result) map[*lang.Cast][]string {
	out := make(map[*lang.Cast][]string)
	for _, rc := range r.ReachableCasts() {
		var labels []string
		for _, o := range rc.Incoming {
			labels = append(labels, o.Rep.Label)
		}
		sort.Strings(labels)
		out[rc.Stmt] = labels
	}
	return out
}

// TestOptimizedSolverEquivalence is the randomized A/B: for a spread of
// generated programs and selectors, the optimized solver must produce
// exactly the same points-to sets, call graph, reachable-method set and
// cast facts as the naive NoOpt solver.
func TestOptimizedSolverEquivalence(t *testing.T) {
	selectors := []Selector{nil, KObj{K: 2}} // nil = default CI
	for seed := int64(1); seed <= 10; seed++ {
		prog := synth.RandomProgram(seed)
		for _, sel := range selectors {
			name := "ci"
			if sel != nil {
				name = sel.Name()
			}
			opt, err := Solve(prog, Options{Selector: sel})
			if err != nil {
				t.Fatalf("seed %d %s: Solve: %v", seed, name, err)
			}
			naive, err := Solve(prog, Options{Selector: sel, NoOpt: true})
			if err != nil {
				t.Fatalf("seed %d %s: Solve(NoOpt): %v", seed, name, err)
			}
			assertSameAnalysis(t, fmt.Sprintf("seed %d %s", seed, name), prog, opt, naive)
		}
	}
}
