package pta

import (
	"testing"

	"mahjong/internal/lang"
)

func TestSelectorNames(t *testing.T) {
	cases := []struct {
		sel  Selector
		want string
	}{
		{CI{}, "ci"},
		{KCFA{K: 2}, "2cs"},
		{KObj{K: 3}, "3obj"},
		{KType{K: 2}, "2type"},
	}
	for _, c := range cases {
		if got := c.sel.Name(); got != c.want {
			t.Errorf("Name()=%q want %q", got, c.want)
		}
	}
}

// TestMergedObjectsContextInsensitive: with a MOM merging two sites, the
// merged object must appear as a single CSObj even under deep object
// sensitivity (§3.6.1: M-A models merged objects context-insensitively).
func TestMergedObjectsContextInsensitive(t *testing.T) {
	p := lang.NewProgram()
	obj := p.Object()
	box := p.NewClass("Box", nil)
	val := box.NewField("val", obj)
	fill := box.NewMethod("fill", false, nil, nil)
	inner := fill.NewVar("inner", obj)
	innerSite := fill.AddAlloc(inner, box)
	fill.AddStore(fill.This, val, inner)
	fill.AddReturn(nil)

	mainCls := p.NewClass("Main", nil)
	m := mainCls.NewMethod("main", true, nil, nil)
	b1 := m.NewVar("b1", box)
	b2 := m.NewVar("b2", box)
	s1 := m.AddAlloc(b1, box)
	s2 := m.AddAlloc(b2, box)
	m.AddVirtualCall(nil, b1, "fill")
	m.AddVirtualCall(nil, b2, "fill")
	m.AddReturn(nil)
	p.SetEntry(m)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	// Baseline 3obj: the inner allocation gets one heap context per
	// outer box (plus recursive inner-in-inner contexts).
	base, err := Solve(p, Options{Selector: KObj{K: 3}})
	if err != nil {
		t.Fatal(err)
	}
	baseInner := countCSObjsOf(base, innerSite)
	if baseInner < 2 {
		t.Fatalf("baseline inner CSObjs=%d, want >=2 (per-receiver contexts)", baseInner)
	}

	// Mahjong with all three Box sites merged: a single CSObj.
	mom := map[*lang.AllocSite]*lang.AllocSite{
		s1: s1, s2: s1, innerSite: s1,
	}
	merged, err := Solve(p, Options{Selector: KObj{K: 3}, Heap: NewMergedSiteModel(mom)})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, cs := range merged.CSObjs() {
		if cs.Obj.Rep == s1 {
			count++
			if cs.Ctx.Depth() != 0 {
				t.Fatalf("merged object has non-empty heap context %v", cs.Ctx)
			}
		}
	}
	if count != 1 {
		t.Fatalf("merged object CSObjs=%d want 1", count)
	}
}

func countCSObjsOf(r *Result, site *lang.AllocSite) int {
	n := 0
	for _, cs := range r.CSObjs() {
		for _, s := range cs.Obj.Sites {
			if s == site {
				n++
			}
		}
	}
	return n
}

// TestKTypeContextElements: under k-type sensitivity, context elements
// are the classes containing allocation sites, so two receivers
// allocated in the same class share a context.
func TestKTypeContextElements(t *testing.T) {
	prog, ga, _, _, _ := buildContainer(t)
	r, err := Solve(prog, Options{Selector: KType{K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Both boxes are allocated in Main, so 2type merges their contexts
	// and ga sees both stored objects (coarser than 2obj).
	if got := len(r.VarObjs(ga)); got != 2 {
		t.Fatalf("2type: ga sees %d objs, want 2", got)
	}
	// Context elements must be classes.
	for _, cs := range r.CSObjs() {
		for _, e := range cs.Ctx.Elements() {
			if _, ok := e.(*lang.Class); !ok {
				t.Fatalf("ktype context element %T, want *lang.Class", e)
			}
		}
	}
}

// TestKObjContextElements: under k-object sensitivity context elements
// are abstract objects, and allocations inside instance methods get
// per-receiver heap contexts.
func TestKObjContextElements(t *testing.T) {
	// Box.fill allocates an inner object: its heap context must carry
	// the receiver box.
	p := lang.NewProgram()
	obj := p.Object()
	box := p.NewClass("Box", nil)
	val := box.NewField("val", obj)
	fill := box.NewMethod("fill", false, nil, nil)
	inner := fill.NewVar("inner", obj)
	leaf := p.NewClass("Leaf", nil)
	innerSite := fill.AddAlloc(inner, leaf)
	fill.AddStore(fill.This, val, inner)
	fill.AddReturn(nil)
	mainCls := p.NewClass("Main", nil)
	m := mainCls.NewMethod("main", true, nil, nil)
	b1 := m.NewVar("b1", box)
	b2 := m.NewVar("b2", box)
	m.AddAlloc(b1, box)
	m.AddAlloc(b2, box)
	m.AddVirtualCall(nil, b1, "fill")
	m.AddVirtualCall(nil, b2, "fill")
	m.AddReturn(nil)
	p.SetEntry(m)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	r, err := Solve(p, Options{Selector: KObj{K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	deepInner := 0
	for _, cs := range r.CSObjs() {
		for _, e := range cs.Ctx.Elements() {
			if _, ok := e.(*Obj); !ok {
				t.Fatalf("kobj context element %T, want *pta.Obj", e)
			}
		}
		if cs.Obj.Rep == innerSite {
			if cs.Ctx.Depth() != 1 {
				t.Fatalf("inner heap context depth=%d want 1", cs.Ctx.Depth())
			}
			deepInner++
		}
	}
	if deepInner != 2 {
		t.Fatalf("inner CSObjs=%d want 2 (one per receiver box)", deepInner)
	}
}

// TestKCFAContextElements: call-site sensitivity uses invokes.
func TestKCFAContextElements(t *testing.T) {
	prog, ra, _, _, _ := buildWrapper(t)
	r, err := Solve(prog, Options{Selector: KCFA{K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.VarObjs(ra)) != 1 {
		t.Fatal("2cs should separate the wrapper calls")
	}
	found := false
	for _, cs := range r.CSObjs() {
		for _, e := range cs.Ctx.Elements() {
			if _, ok := e.(*lang.Invoke); !ok {
				t.Fatalf("kcfa context element %T, want *lang.Invoke", e)
			}
			found = true
		}
	}
	_ = found // heap contexts may be empty at k=2 with shallow programs
}

func TestVarTypesSorted(t *testing.T) {
	f := buildFigure1(t)
	r, err := Solve(f.prog, Options{Heap: NewAllocTypeModel()})
	if err != nil {
		t.Fatal(err)
	}
	types := r.VarTypes(f.varA)
	if len(types) != 2 || types[0].Name != "B" || types[1].Name != "C" {
		t.Fatalf("VarTypes=%v want [B C]", types)
	}
}

func TestFieldPointsToDeterministic(t *testing.T) {
	f := buildFigure1(t)
	r := solveCI(t, f.prog)
	var order1, order2 []string
	collect := func(out *[]string) func(*Obj, *lang.Field, []*Obj) {
		return func(base *Obj, field *lang.Field, targets []*Obj) {
			s := base.String() + "." + field.Name + "->"
			for _, t := range targets {
				s += t.String() + ","
			}
			*out = append(*out, s)
		}
	}
	r.FieldPointsTo(collect(&order1))
	r.FieldPointsTo(collect(&order2))
	if len(order1) != 3 {
		t.Fatalf("field facts=%d want 3 (x.f, y.f, z.f)", len(order1))
	}
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatal("FieldPointsTo iteration nondeterministic")
		}
	}
}

func TestCallGraphEdgesSorted(t *testing.T) {
	f := buildFigure1(t)
	r := solveCI(t, f.prog)
	edges := r.CallGraphEdges()
	if len(edges) != r.NumCallGraphEdges() {
		t.Fatal("edge list and count disagree")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i-1].Site.ID > edges[i].Site.ID {
			t.Fatal("edges not sorted by site")
		}
	}
}

func TestNumQueries(t *testing.T) {
	f := buildFigure1(t)
	r := solveCI(t, f.prog)
	if r.NumNodes() == 0 || r.NumCSObjs() != 6 {
		t.Fatalf("nodes=%d csobjs=%d", r.NumNodes(), r.NumCSObjs())
	}
	if r.NumCSMethods() != r.NumReachableMethods() {
		t.Fatal("ci: cs-methods should equal reachable methods")
	}
}

// TestDispatchToInheritedMethod: a subclass without an override
// dispatches to the superclass implementation.
func TestDispatchToInheritedMethod(t *testing.T) {
	p := lang.NewProgram()
	a := p.NewClass("A", nil)
	afoo := a.NewMethod("foo", false, nil, nil)
	afoo.AddReturn(nil)
	b := p.NewClass("B", a) // no override
	mainCls := p.NewClass("Main", nil)
	m := mainCls.NewMethod("main", true, nil, nil)
	x := m.NewVar("x", a)
	m.AddAlloc(x, b)
	inv := m.AddVirtualCall(nil, x, "foo")
	m.AddReturn(nil)
	p.SetEntry(m)
	r := solveCI(t, p)
	tgts := r.CallTargets(inv)
	if len(tgts) != 1 || tgts[0] != afoo {
		t.Fatalf("targets=%v want [A.foo]", tgts)
	}
}

// TestInterfaceDispatch: calls through an interface-typed receiver
// dispatch on the runtime class.
func TestInterfaceDispatch(t *testing.T) {
	p := lang.NewProgram()
	i := p.NewInterface("I")
	i.NewAbstractMethod("run", nil, nil)
	impl := p.NewClass("Impl", nil, i)
	irun := impl.NewMethod("run", false, nil, nil)
	irun.AddReturn(nil)
	mainCls := p.NewClass("Main", nil)
	m := mainCls.NewMethod("main", true, nil, nil)
	v := m.NewVar("v", i)
	m.AddAlloc(v, impl)
	inv := m.AddVirtualCall(nil, v, "run")
	m.AddReturn(nil)
	p.SetEntry(m)
	r := solveCI(t, p)
	tgts := r.CallTargets(inv)
	if len(tgts) != 1 || tgts[0] != irun {
		t.Fatalf("targets=%v want [Impl.run]", tgts)
	}
}

// TestUnrelatedReceiverSkipped: if an imprecise abstraction makes an
// object of an unrelated type flow into a receiver, dispatch silently
// skips it rather than crashing.
func TestUnrelatedReceiverSkipped(t *testing.T) {
	p := lang.NewProgram()
	obj := p.Object()
	a := p.NewClass("A", nil)
	afoo := a.NewMethod("foo", false, nil, nil)
	afoo.AddReturn(nil)
	u := p.NewClass("Unrelated", nil)
	mainCls := p.NewClass("Main", nil)
	m := mainCls.NewMethod("main", true, nil, nil)
	raw := m.NewVar("raw", obj)
	recv := m.NewVar("recv", a)
	m.AddAlloc(raw, a)
	m.AddAlloc(raw, u)
	m.AddCast(recv, a, raw)
	inv := m.AddVirtualCall(nil, recv, "foo")
	m.AddReturn(nil)
	p.SetEntry(m)
	r := solveCI(t, p)
	// The cast filter keeps Unrelated out, and dispatch finds only A.foo.
	tgts := r.CallTargets(inv)
	if len(tgts) != 1 || tgts[0] != afoo {
		t.Fatalf("targets=%v want [A.foo]", tgts)
	}
}

// TestReceiverWithoutImplementation: dispatch failure on a class with
// no implementation must be ignored, not panic.
func TestReceiverWithoutImplementation(t *testing.T) {
	p := lang.NewProgram()
	obj := p.Object()
	i := p.NewInterface("I")
	i.NewAbstractMethod("run", nil, nil)
	impl := p.NewClass("Impl", nil, i)
	irun := impl.NewMethod("run", false, nil, nil)
	irun.AddReturn(nil)
	// Bare implements I but never defines run (would be abstract in
	// Java; the IR permits it and the analysis must tolerate it).
	bare := p.NewClass("Bare", nil, i)
	mainCls := p.NewClass("Main", nil)
	m := mainCls.NewMethod("main", true, nil, nil)
	v := m.NewVar("v", i)
	vo := m.NewVar("vo", obj)
	m.AddAlloc(v, impl)
	m.AddAlloc(vo, bare)
	m.AddCopy(v, vo) // widening to interface? vo is Object: use cast
	inv := m.AddVirtualCall(nil, v, "run")
	m.AddReturn(nil)
	p.SetEntry(m)
	// Validation rejects Object→I copy? assignable allows either
	// direction, so it passes; the analysis must not crash on Bare.
	if err := p.Validate(); err != nil {
		t.Skipf("validator rejected the setup: %v", err)
	}
	r := solveCI(t, p)
	tgts := r.CallTargets(inv)
	if len(tgts) != 1 || tgts[0] != irun {
		t.Fatalf("targets=%v want [Impl.run] only", tgts)
	}
}
