package pta

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"mahjong/internal/delta"
	"mahjong/internal/lang"
	"mahjong/internal/parser"
)

// A store b.f = y is not a flow edge: it is registered on the base (each
// object o of b gets y's whole set in o.f) and, as a store-out, on the
// right-hand side (each delta of y goes into o.f for every o in b).
// These tests pin the orders in which the two sides can grow.

const storeClasses = `
class A { field f: java.lang.Object }
class B { }
`

// solveMain parses storeClasses plus a Main.main holding decls and body,
// and solves it context-insensitively.
func solveMain(t *testing.T, decls, body string) (*lang.Program, *Result) {
	t.Helper()
	var src strings.Builder
	src.WriteString(storeClasses)
	src.WriteString("class Main {\n  static method main(): void {\n")
	for _, d := range strings.Fields(decls) {
		name, typ, _ := strings.Cut(d, ":")
		fmt.Fprintf(&src, "    var %s: %s\n", name, typ)
	}
	src.WriteString(body)
	src.WriteString("    return\n  }\n}\nentry Main.main/0\n")
	prog, err := parser.Parse("store.ir", src.String())
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src.String())
	}
	r, err := Solve(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog, r
}

func mainVar(t *testing.T, prog *lang.Program, name string) *lang.Var {
	t.Helper()
	for _, v := range prog.Entry.Locals {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("no variable %s in main", name)
	return nil
}

// fieldFacts renders FieldPointsTo as sorted "base.field -> targets"
// lines, with objects named by their site index and targets sorted, so
// results that intern objects in different orders compare equal.
func fieldFacts(r *Result) []string {
	var out []string
	r.FieldPointsTo(func(base *Obj, f *lang.Field, targets []*Obj) {
		var ts []string
		for _, o := range targets {
			ts = append(ts, o.Rep.Type.Name+fmt.Sprint(o.Rep.ID))
		}
		slices.Sort(ts)
		out = append(out, fmt.Sprintf("%s%d.%s -> %v", base.Rep.Type.Name, base.Rep.ID, f.Name, ts))
	})
	slices.Sort(out)
	return out
}

func wantFacts(t *testing.T, r *Result, want ...string) {
	t.Helper()
	if got := fieldFacts(r); !slices.Equal(got, want) {
		t.Fatalf("field facts %q, want %q", got, want)
	}
}

// The base's delta is processed before the right-hand side holds
// anything (the copies are wired while empty, so B reaches y only
// through the worklist): B reaches o.f only through y's store-out.
func TestStoreBaseGrowsBeforeRHS(t *testing.T) {
	prog, r := solveMain(t, "b:A y0:B y1:B y:B z:java.lang.Object", `
    b = new A
    b.f = y
    y = y1
    y1 = y0
    y0 = new B
    z = b.f
`)
	wantFacts(t, r, "A0.f -> [B1]")
	if got := varSiteLabels(r, mainVar(t, prog, "z")); len(got) != 1 {
		t.Fatalf("pts(z) = %v, want the B object", got)
	}
}

// The right-hand side's delta is processed before the base holds an
// object: o.f gets the whole right-hand side when the base's delta
// reaches the store.
func TestStoreRHSGrowsBeforeBase(t *testing.T) {
	prog, r := solveMain(t, "y:B b0:A b1:A b:A z:java.lang.Object", `
    y = new B
    b.f = y
    b = b1
    b1 = b0
    b0 = new A
    z = b.f
`)
	wantFacts(t, r, "A1.f -> [B0]")
	if got := varSiteLabels(r, mainVar(t, prog, "z")); len(got) != 1 {
		t.Fatalf("pts(z) = %v, want the B object", got)
	}
}

// x.f = x: the variable is both sides of the store, and its second
// object arrives after the first has been processed.
func TestStoreSelf(t *testing.T) {
	prog, r := solveMain(t, "x:A x1:A x2:A z:java.lang.Object", `
    x = new A
    x.f = x
    x = x2
    x2 = x1
    x1 = new A
    z = x.f
`)
	wantFacts(t, r, "A0.f -> [A0 A1]", "A1.f -> [A0 A1]")
	if got := varSiteLabels(r, mainVar(t, prog, "z")); len(got) != 2 {
		t.Fatalf("pts(z) = %v, want both A objects", got)
	}
}

// A store written twice registers one site on the base and one
// store-out on the right-hand side.
func TestStoreRepeatedRegisteredOnce(t *testing.T) {
	prog, r := solveMain(t, "b:A y:B", `
    b = new A
    y = new B
    b.f = y
    b.f = y
`)
	wantFacts(t, r, "A0.f -> [B1]")
	s := r.solver
	count := func(name string, kind siteKind) int {
		id, ok := s.lookupVar(s.emptyHeap, mainVar(t, prog, name))
		if !ok {
			t.Fatalf("no node for %s", name)
		}
		n := 0
		for _, fs := range s.nodes.at(id).info.sites {
			if fs.kind == kind {
				n++
			}
		}
		return n
	}
	if n := count("b", siteStore); n != 1 {
		t.Fatalf("b has %d store sites, want 1", n)
	}
	if n := count("y", siteStoreOut); n != 1 {
		t.Fatalf("y has %d store-outs, want 1", n)
	}
	if n := r.Stats().Edges; n != 0 {
		t.Fatalf("%d flow edges, want 0: a store is not an edge", n)
	}
}

// varInfo is allocated once per var node; the tagged site slice keeps it
// in the 80-byte size class.
func TestVarInfoSize(t *testing.T) {
	if n := unsafe.Sizeof(varInfo{}); n > 80 {
		t.Fatalf("varInfo is %d bytes, want at most 80", n)
	}
}

// TestIncrementalStoreRHSTaintedBaseNot: put's store box.f = v has an
// untainted base (put allocates it, and its call edge from the
// unchanged main is not tainted) and a right-hand side tainted through
// the call edges the edit changes what flows over: pick's return into
// y, then y into put's v. Both objects are allocated in main, so box.f's
// base set is translatable. The warm solve must not seed box.f with it:
// the tainter reaches box.f through v's store-out.
func TestIncrementalStoreRHSTaintedBaseNot(t *testing.T) {
	const src = `
class Box { field f: java.lang.Object }
class A { }
class B { }
class Main {
  static method pick(p0: java.lang.Object, p1: java.lang.Object): java.lang.Object {
    return %s
  }
  static method put(v: java.lang.Object): Box {
    var box: Box
    box = new Box
    box.f = v
    return box
  }
  static method main(): void {
    var a: A
    var b: B
    var y: java.lang.Object
    var r: Box
    var z: java.lang.Object
    a = new A
    b = new B
    y = Main.pick(a, b)
    r = Main.put(y)
    z = r.f
    return
  }
}
entry Main.main/0
`
	prog, err := parser.Parse("base.ir", fmt.Sprintf(src, "p0"))
	if err != nil {
		t.Fatal(err)
	}
	next, err := parser.Parse("edit.ir", fmt.Sprintf(src, "p1"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Solve(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := delta.Compute(prog, next, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.BodyOnly || d.Additive || len(d.Changed) != 1 {
		t.Fatalf("edit: BodyOnly=%t Additive=%t changed=%d, want one non-additive body change",
			d.BodyOnly, d.Additive, len(d.Changed))
	}
	warm, st, err := SolveIncremental(next, Options{}, base, d)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Used {
		t.Fatalf("fell back to a cold solve: %s", st.Fallback)
	}
	if st.DirtyMethods != 1 {
		t.Fatalf("%d dirty methods, want only the edited pick", st.DirtyMethods)
	}
	cold, err := Solve(next, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnalysis(t, "store rhs tainted", next, warm, cold)
	if g, w := fieldFacts(warm), fieldFacts(cold); !slices.Equal(g, w) {
		t.Fatalf("field facts warm %q, cold %q", g, w)
	}
}

// storeRHSProgram is a random program shaped so that editing one of its
// pick methods taints the right-hand side of stores whose bases stay
// untainted: every pick returns one of its parameters (ret[i] says
// which), main feeds pick results into stores through bases it
// allocates itself or that an unchanged put method allocates, and loads
// the fields back. Loaded values feed later picks, so a stale field set
// spreads. Every object is allocated in an unchanged method, so every
// base's field set is translatable.
type storeRHSProgram struct {
	fields, classes, arity int
	ret                    []int // by pick: the parameter it returns
	calls                  []storeRHSCall
}

// storeRHSCall is main's s-th pick call: ys = pick(args...), stored
// into rs.f<field> (rs local, or allocated by put<field>), and loaded
// back as zs = rs.f<load>.
type storeRHSCall struct {
	pick, field, load int
	viaPut            bool
	args              []string
}

func randomStoreRHSProgram(rng *rand.Rand) *storeRHSProgram {
	p := &storeRHSProgram{fields: 1 + rng.Intn(3), classes: 2 + rng.Intn(3), arity: 2 + rng.Intn(2)}
	p.ret = make([]int, 1+rng.Intn(3))
	for i := range p.ret {
		p.ret[i] = rng.Intn(p.arity)
	}
	n := len(p.ret) + rng.Intn(5)
	for s := 0; s < n; s++ {
		pick := s % len(p.ret) // the first calls reach every pick once
		if s >= len(p.ret) {
			pick = rng.Intn(len(p.ret))
		}
		call := storeRHSCall{pick: pick, field: rng.Intn(p.fields), load: rng.Intn(p.fields), viaPut: rng.Intn(2) == 0}
		for a := 0; a < p.arity; a++ {
			if s > 0 && rng.Intn(3) == 0 {
				call.args = append(call.args, fmt.Sprintf("z%d", rng.Intn(s)))
			} else {
				call.args = append(call.args, fmt.Sprintf("c%d", rng.Intn(p.classes)))
			}
		}
		p.calls = append(p.calls, call)
	}
	return p
}

// edit makes one pick return a different parameter.
func (p *storeRHSProgram) edit(rng *rand.Rand) string {
	i := rng.Intn(len(p.ret))
	old := p.ret[i]
	p.ret[i] = (old + 1 + rng.Intn(p.arity-1)) % p.arity
	return fmt.Sprintf("pick%d returns p%d, not p%d", i, p.ret[i], old)
}

func (p *storeRHSProgram) source() string {
	var b strings.Builder
	b.WriteString("class Box {")
	for f := 0; f < p.fields; f++ {
		fmt.Fprintf(&b, " field f%d: java.lang.Object", f)
	}
	b.WriteString(" }\n")
	for c := 0; c < p.classes; c++ {
		fmt.Fprintf(&b, "class C%d { }\n", c)
	}
	b.WriteString("class Main {\n")
	var params []string
	for a := 0; a < p.arity; a++ {
		params = append(params, fmt.Sprintf("p%d: java.lang.Object", a))
	}
	for i, r := range p.ret {
		fmt.Fprintf(&b, "  static method pick%d(%s): java.lang.Object {\n    return p%d\n  }\n", i, strings.Join(params, ", "), r)
	}
	for f := 0; f < p.fields; f++ {
		fmt.Fprintf(&b, "  static method put%d(v: java.lang.Object): Box {\n    var box: Box\n    box = new Box\n    box.f%d = v\n    return box\n  }\n", f, f)
	}
	b.WriteString("  static method main(): void {\n")
	for c := 0; c < p.classes; c++ {
		fmt.Fprintf(&b, "    var c%d: C%d\n", c, c)
	}
	for s := range p.calls {
		fmt.Fprintf(&b, "    var y%d: java.lang.Object\n    var r%d: Box\n    var z%d: java.lang.Object\n", s, s, s)
	}
	for c := 0; c < p.classes; c++ {
		fmt.Fprintf(&b, "    c%d = new C%d\n", c, c)
	}
	for s, call := range p.calls {
		fmt.Fprintf(&b, "    y%d = Main.pick%d(%s)\n", s, call.pick, strings.Join(call.args, ", "))
		if call.viaPut {
			fmt.Fprintf(&b, "    r%d = Main.put%d(y%d)\n", s, call.field, s)
		} else {
			fmt.Fprintf(&b, "    r%d = new Box\n    r%d.f%d = y%d\n", s, s, call.field, s)
		}
		fmt.Fprintf(&b, "    z%d = r%d.f%d\n", s, s, call.load)
	}
	b.WriteString("    return\n  }\n}\nentry Main.main/0\n")
	return b.String()
}

// rhsTaintedStores counts the base solver's stores whose right-hand
// side the edit taints while their base keeps a non-empty, untainted
// set: the stores only the tainter's store-out rule invalidates.
func rhsTaintedStores(base *Result, d *delta.Diff) int {
	tn := newTainter(base.solver, d)
	tn.run()
	n := 0
	for id := range base.solver.nodes.len() {
		info := base.solver.nodes.at(id).info
		if info == nil || !tn.tainted[id] {
			continue
		}
		for _, fs := range info.sites {
			if b := int(fs.node); fs.kind == siteStoreOut && !tn.tainted[b] && !base.solver.nodes.at(b).pts.IsEmpty() {
				n++
			}
		}
	}
	return n
}

// TestIncrementalStoreRHSRandomEdits is the randomized sweep behind
// TestIncrementalStoreRHSTaintedBaseNot: chains of pick edits over
// random storeRHSPrograms, each step solved warm from the previous
// step's (warm) result and cold, must agree on every fact, field facts
// included. Each step checks that it exercises the case: some store's
// right-hand side is tainted while its base is not.
func TestIncrementalStoreRHSRandomEdits(t *testing.T) {
	const programs, steps = 30, 4
	rng := rand.New(rand.NewSource(11)) //nolint:gosec // deterministic test sweep
	for pi := 0; pi < programs; pi++ {
		sp := randomStoreRHSProgram(rng)
		cur, err := parser.Parse("base.ir", sp.source())
		if err != nil {
			t.Fatalf("program %d: %v\n%s", pi, err, sp.source())
		}
		curRes, err := Solve(cur, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			desc := sp.edit(rng)
			tag := fmt.Sprintf("program %d step %d (%s)", pi, i, desc)
			next, err := parser.Parse("edit.ir", sp.source())
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			d, err := delta.Compute(cur, next, delta.Options{})
			if err != nil {
				t.Fatalf("%s: diff: %v", tag, err)
			}
			if !d.BodyOnly || d.Additive || len(d.Changed) != 1 {
				t.Fatalf("%s: BodyOnly=%t Additive=%t changed=%d, want one non-additive body change",
					tag, d.BodyOnly, d.Additive, len(d.Changed))
			}
			if rhsTaintedStores(curRes, d) == 0 {
				t.Fatalf("%s: no store has a tainted right-hand side and an untainted base\n%s", tag, sp.source())
			}
			warm, st, err := SolveIncremental(next, Options{}, curRes, d)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if !st.Used {
				t.Fatalf("%s: fell back to a cold solve: %s", tag, st.Fallback)
			}
			cold, err := Solve(next, Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertSameAnalysis(t, tag, next, warm, cold)
			if g, w := fieldFacts(warm), fieldFacts(cold); !slices.Equal(g, w) {
				t.Fatalf("%s: field facts warm %q, cold %q\n%s", tag, g, w, sp.source())
			}
			cur, curRes = next, warm
		}
	}
}
