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
	prog, x := buildSelfLoadChain(t)
	r, err := Solve(prog, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if objs := r.VarObjs(x); len(objs) != 3 {
		t.Fatalf("x points to %d objects (%v), want 3", len(objs), objs)
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

// TestFilterMasksMatchSubtypeOf pins the invariant behind filtered():
// it returns delta ∩ mask, so a filtered propagation is exact iff every
// class mask holds exactly the CSObj IDs whose object type is a subtype
// of its class. After each solve, over context selectors and heap
// models that intern objects differently, every mask the solver built
// must agree with SubtypeOf on the IDs it covers and hold none beyond,
// and extending it over the rest of the object table must agree too.
// With the reference solver checking the results themselves, this
// covers the masks without a second, unmasked solve.
func TestFilterMasksMatchSubtypeOf(t *testing.T) {
	selectors := []Selector{CI{}, KObj{K: 2}, KType{K: 2}, KCFA{K: 2}}
	heaps := []func() HeapModel{
		func() HeapModel { return NewAllocSiteModel() },
		func() HeapModel { return NewAllocTypeModel() },
	}
	built := 0
	for seed := int64(1); seed <= 20; seed++ {
		prog := synth.RandomProgram(seed)
		for _, sel := range selectors {
			for _, heap := range heaps {
				h := heap()
				tag := fmt.Sprintf("seed %d %s/%s", seed, sel.Name(), h.Name())
				r, err := Solve(prog, Options{Selector: sel, Heap: h})
				if err != nil {
					t.Fatalf("%s: Solve: %v", tag, err)
				}
				built += checkFilterMasks(t, tag, r.solver)
			}
		}
	}
	if built == 0 {
		t.Fatal("no solve built a filter mask: the check is vacuous")
	}
	t.Logf("%d masks checked", built)
}

// checkFilterMasks checks every built mask of s against SubtypeOf and
// returns how many there were.
func checkFilterMasks(t *testing.T, tag string, s *solver) int {
	t.Helper()
	check := func(cls *lang.Class, m *classMask) {
		t.Helper()
		if m.upTo > len(s.csobjs) {
			t.Fatalf("%s: mask %s covers %d of %d interned objects", tag, cls.Name, m.upTo, len(s.csobjs))
		}
		for id := range m.upTo {
			want := s.csobjs[id].Obj.Type.SubtypeOf(cls)
			if got := m.set.Contains(id); got != want {
				t.Fatalf("%s: mask %s bit %d (%s) = %v, SubtypeOf = %v",
					tag, cls.Name, id, s.csobjs[id], got, want)
			}
		}
		m.set.ForEach(func(id int) bool {
			if id >= m.upTo {
				t.Fatalf("%s: mask %s holds bit %d beyond its coverage %d", tag, cls.Name, id, m.upTo)
			}
			return true
		})
	}
	n := 0
	for cid, m := range s.masks {
		if m == nil {
			continue
		}
		n++
		cls := s.prog.Classes[cid]
		check(cls, m)
		s.mask(int32(cid + 1))
		if m.upTo != len(s.csobjs) {
			t.Fatalf("%s: extended mask %s covers %d of %d objects", tag, cls.Name, m.upTo, len(s.csobjs))
		}
		check(cls, m)
	}
	return n
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
