package pta

import (
	"fmt"
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

// fieldFacts renders FieldPointsTo as "base.field -> targets" lines,
// with objects named by their site index.
func fieldFacts(r *Result) []string {
	var out []string
	r.FieldPointsTo(func(base *Obj, f *lang.Field, targets []*Obj) {
		var ts []string
		for _, o := range targets {
			ts = append(ts, o.Rep.Type.Name+fmt.Sprint(o.Rep.ID))
		}
		out = append(out, fmt.Sprintf("%s%d.%s -> %v", base.Rep.Type.Name, base.Rep.ID, f.Name, ts))
	})
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
		for _, fs := range s.nodes[id].info.sites {
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
