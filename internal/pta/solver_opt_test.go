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
// pair hanging off two members so that var-node sites fire on cycle
// deltas.
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
	// A store and a load through different cycle members: the load
	// sees the stored object only once the allocation has gone round.
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

func TestCopyCyclePropagation(t *testing.T) {
	prog, vars, out := buildCopyCycle(t, 512)
	r, err := Solve(prog, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	ring, stored := prog.Sites[0].Label, prog.Sites[1].Label
	for _, v := range vars {
		if got := varSiteLabels(r, v); !equalStrings(got, []string{ring}) {
			t.Fatalf("%s points to %v, want [%s] (the allocation circulating the cycle)", v.Name, got, ring)
		}
	}
	if got := varSiteLabels(r, out); !equalStrings(got, []string{stored}) {
		t.Fatalf("out points to %v, want [%s] (the object stored through the cycle)", got, stored)
	}

	// The NoOpt run must agree object-for-object.
	rn, err := Solve(prog, Options{NoOpt: true})
	if err != nil {
		t.Fatalf("Solve(NoOpt): %v", err)
	}
	if sn := rn.Stats(); sn.FilterMaskHits != 0 {
		t.Fatalf("NoOpt run used filter masks: %+v", sn)
	}
	for _, v := range append(vars, out) {
		if got, want := varSiteLabels(r, v), varSiteLabels(rn, v); !equalStrings(got, want) {
			t.Fatalf("%s: opt=%v noopt=%v", v.Name, got, want)
		}
	}
}

// buildAllocRing builds a ring of n filter-free copies that allocs
// allocations enter at evenly spaced members.
func buildAllocRing(t *testing.T, n, allocs int) *lang.Program {
	t.Helper()
	p := lang.NewProgram()
	a := p.NewClass("A", nil)
	mainCls := p.NewClass("Main", nil)
	m := mainCls.NewMethod("main", true, nil, nil)
	vars := make([]*lang.Var, n)
	for i := range vars {
		vars[i] = m.NewVar(fmt.Sprintf("v%d", i), a)
	}
	for i := range vars {
		m.AddCopy(vars[(i+1)%n], vars[i])
	}
	for k := 0; k < allocs; k++ {
		m.AddAlloc(vars[k*n/allocs], a)
	}
	m.AddReturn(nil)
	p.SetEntry(m)
	if err := p.Validate(); err != nil {
		t.Fatalf("program invalid: %v", err)
	}
	return p
}

// Difference propagation moves each fact once per cycle member: every
// ring member ends up holding every allocation, and each of those
// (member, object) facts leaves the worklist in exactly one delta. A
// solver that re-propagated whole sets, or re-queued facts it already
// had, would push more bits than that.
func TestCopyCycleLinearPropagation(t *testing.T) {
	const n = 1024
	for _, allocs := range []int{1, 8} {
		r, err := Solve(buildAllocRing(t, n, allocs), Options{})
		if err != nil {
			t.Fatalf("allocs=%d: Solve: %v", allocs, err)
		}
		if st := r.Stats(); st.PropagatedBits != int64(allocs*n) {
			t.Fatalf("allocs=%d: %d bits propagated around a ring of %d, want %d", allocs, st.PropagatedBits, n, allocs*n)
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
