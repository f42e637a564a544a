package parser

import (
	"strings"
	"testing"

	"mahjong/internal/lang"
)

// figure1Src is the motivating program of the paper (Figure 1) in the
// textual IR.
const figure1Src = `
// Figure 1 of the Mahjong paper.
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
    var t: A
    x = new A
    y = new A
    z = new A
    t = new B
    x.f = t
    t = new C
    y.f = t
    t = new C
    z.f = t
    a = z.f
    a.foo()
    c = (C) a
    return
  }
}
entry Main.main/0
`

func mustParse(t *testing.T, src string) *lang.Program {
	t.Helper()
	p, err := Parse("test.ir", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func TestParseFigure1(t *testing.T) {
	p := mustParse(t, figure1Src)
	st := p.Stats()
	if st.AllocSites != 6 {
		t.Fatalf("alloc sites=%d want 6", st.AllocSites)
	}
	if st.CallSites != 1 {
		t.Fatalf("call sites=%d want 1", st.CallSites)
	}
	a := p.Class("A")
	if a == nil || a.Field("f") == nil {
		t.Fatal("class A or field f missing")
	}
	b := p.Class("B")
	if !b.SubtypeOf(a) {
		t.Fatal("B <: A missing")
	}
	if p.Entry == nil || p.Entry.Name != "main" {
		t.Fatal("entry not set")
	}
}

func TestDeclarationOrderIrrelevant(t *testing.T) {
	src := `
class B extends A {}
class A implements I {}
interface I {}
class Main { static method main(): void { return } }
entry Main.main
`
	p := mustParse(t, src)
	if !p.Class("B").SubtypeOf(p.Class("I")) {
		t.Fatal("B should implement I via A")
	}
}

func TestInterfaceExtends(t *testing.T) {
	src := `
interface I {}
interface J extends I {}
class A implements J {
  method m(): void { return }
}
class Main { static method main(): void { return } }
entry Main.main/0
`
	p := mustParse(t, src)
	if !p.Class("A").SubtypeOf(p.Class("I")) {
		t.Fatal("A <: I via J failed")
	}
}

func TestArraysAndStatics(t *testing.T) {
	src := `
class A {
  static field CACHE: A[]
}
class Main {
  static method main(): void {
    var arr: A[]
    var x: A
    arr = new A[]
    x = new A
    arr[] = x
    x = arr[]
    A.CACHE = arr
    arr = A.CACHE
    return
  }
}
entry Main.main/0
`
	p := mustParse(t, src)
	arr := p.Class("A[]")
	if arr == nil || !arr.IsArray() {
		t.Fatal("array class not created")
	}
	cache := p.Class("A").Field("CACHE")
	if cache == nil || !cache.IsStatic || cache.Type != arr {
		t.Fatalf("CACHE resolved wrong: %+v", cache)
	}
	// Statement mix: 2 allocs, elem store/load, static store/load.
	m := p.Entry
	kinds := map[string]int{}
	for _, st := range m.Stmts {
		switch st.(type) {
		case *lang.Alloc:
			kinds["alloc"]++
		case *lang.Load:
			kinds["load"]++
		case *lang.Store:
			kinds["store"]++
		case *lang.StaticLoad:
			kinds["sload"]++
		case *lang.StaticStore:
			kinds["sstore"]++
		}
	}
	for k, want := range map[string]int{"alloc": 2, "load": 1, "store": 1, "sload": 1, "sstore": 1} {
		if kinds[k] != want {
			t.Errorf("%s count=%d want %d (stmts: %v)", k, kinds[k], want, m.Stmts)
		}
	}
}

func TestCallsAllKinds(t *testing.T) {
	src := `
class A {
  method init(v: A): void { return }
  method id(v: A): A { return v }
  static method make(): A {
    var a: A
    a = new A
    return a
  }
}
class B extends A {
  method id(v: A): A {
    var r: A
    r = special this.A.id(v)
    return r
  }
}
class Main {
  static method main(): void {
    var a: A
    var b: A
    a = A.make()
    b = new B
    special b.A.init(a)
    a = b.id(a)
    b.id(a)
    return
  }
}
entry Main.main/0
`
	p := mustParse(t, src)
	var kinds []lang.InvokeKind
	for _, st := range p.Entry.Stmts {
		if inv, ok := st.(*lang.Invoke); ok {
			kinds = append(kinds, inv.Kind)
		}
	}
	want := []lang.InvokeKind{lang.StaticCall, lang.SpecialCall, lang.VirtualCall, lang.VirtualCall}
	if len(kinds) != len(want) {
		t.Fatalf("kinds=%v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("call %d kind=%v want %v", i, kinds[i], want[i])
		}
	}
}

func TestAbstractAndInterfaceMethods(t *testing.T) {
	src := `
interface Runnable {
  method run(): void
}
class Base {
  abstract method step(): Base
}
class Impl extends Base implements Runnable {
  method step(): Base { return this }
  method run(): void { return }
}
class Main {
  static method main(): void {
    var r: Runnable
    var b: Base
    var i: Impl
    i = new Impl
    r = i
    b = i
    r.run()
    b = b.step()
    return
  }
}
entry Main.main/0
`
	p := mustParse(t, src)
	run := p.Class("Runnable").DeclaredMethod(lang.Sig{Name: "run", Arity: 0})
	if run == nil || !run.IsAbstract {
		t.Fatal("interface method should be abstract")
	}
	if got := p.Class("Impl").Dispatch(lang.Sig{Name: "step", Arity: 0}); got == nil || got.Owner.Name != "Impl" {
		t.Fatalf("dispatch Impl.step=%v", got)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"lex", "class A { \x01 }", "unexpected character"},
		{"lex-after-file", "class A {}\nentry A.m/0 \x01", "unexpected character"},
		{"lbracket", "class A[ {}", "'[' must be followed"},
		{"noentry", "class A {}", "missing 'entry'"},
		{"badentry", "class A {}\nentry A.main/0", "not declared"},
		{"cycle", "class A extends B {}\nclass B extends A {}\nentry A.m/0", "cycle"},
		{"undeclared-super", "class A extends Zzz {}\nentry A.m/0", "undeclared"},
		{"dup-class", "class A {}\nclass A {}\nentry A.m/0", "duplicate class"},
		{"undeclared-var", "class M { static method main(): void { x = new M } }\nentry M.main/0", "undeclared variable"},
		{"unknown-type", "class M { static method main(): void { var x: Q } }\nentry M.main/0", `unknown type "Q"`},
		{"no-field", "class M { static method main(): void { var x: M\n x = new M\n x = x.f } }\nentry M.main/0", "no instance field"},
		{"no-method", "class M { static method main(): void { var x: M\n x = new M\n x.foo() } }\nentry M.main/0", "no method"},
		{"redeclare", "class M { static method main(): void { var x: M\n var x: M } }\nentry M.main/0", "redeclared"},
		{"object-redecl", "class java.lang.Object {}\nentry X.m/0", "built in"},
		{"iface-implements", "interface I implements I {}\nentry X.m/0", "cannot use 'implements'"},
		{"void-var", "class M { static method main(): void { var x: void } }\nentry M.main/0", "cannot be void"},
		{"instance-entry", "class M { method main(): void { return } }\nentry M.main/0", "must be static"},
		{"extends-iface", "interface I {}\nclass A extends I {}\nentry A.m/0", "extends interface"},
		// Inputs that lang's constructors would reject with a panic.
		{"dup-method", "class A { method m(): void { return }\n method m(): A { return } }\nentry A.m/0", "duplicate method A.m/0"},
		{"dup-field", "class A { field f: A\n static field f: A }\nentry A.m/0", "duplicate field A.f"},
		{"new-iface", "interface I {}\nclass M { static method main(): void { var x: I\n x = new I } }\nentry M.main/0", "cannot allocate interface I"},
		{"void-return-value", "class M { static method main(): void { var x: M\n return x } }\nentry M.main/0", "value return from void method"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.name+".ir", tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	// One case per statement-level syntax path: the whole message,
	// including its line, must stay as it is.
	exact := []struct {
		name, src, want string
	}{
		{"assign-at-end", "class M { static method main(): void { var x: M\n x = } }\nentry M.main/0",
			"assign-at-end.ir:2: unexpected '}' after '='"},
		{"unclosed-args", "class M { static method f(a: M): void { return }\n static method main(): void { var x: M\n x = new M\n M.f(x }\n}\nentry M.main/0",
			"unclosed-args.ir:4: expected identifier, found '}'"},
		{"special-no-class", "class M { method m(): void { return }\n static method main(): void { var x: M\n x = new M\n special x.m() } }\nentry M.main/0",
			"special-no-class.ir:4: special call needs Class.method after receiver"},
		{"elem-store-no-rhs", "class M { static method main(): void { var x: M[]\n x = new M[]\n x[] = } }\nentry M.main/0",
			"elem-store-no-rhs.ir:3: expected identifier, found '}'"},
		{"unclosed-cast", "class M { static method main(): void { var x: M\n x = new M\n x = (M x } }\nentry M.main/0",
			`unclosed-cast.ir:3: expected ')', found "x"`},
	}
	for _, tc := range exact {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.name+".ir", tc.src)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error %v, want %q", err, tc.want)
			}
		})
	}
}

// TestRoundTrip checks Print∘Parse is a fixpoint: parsing the printed
// form and printing again yields identical text.
func TestRoundTrip(t *testing.T) {
	for _, src := range []string{figure1Src} {
		p1 := mustParse(t, src)
		text1 := Print(p1)
		p2, err := Parse("printed.ir", text1)
		if err != nil {
			t.Fatalf("reparse failed: %v\n--- printed ---\n%s", err, text1)
		}
		text2 := Print(p2)
		if text1 != text2 {
			t.Fatalf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
		}
		s1, s2 := p1.Stats(), p2.Stats()
		if s1 != s2 {
			t.Fatalf("stats changed across round trip: %+v vs %+v", s1, s2)
		}
	}
}

func TestPrintContainsDecls(t *testing.T) {
	p := mustParse(t, figure1Src)
	out := Print(p)
	for _, want := range []string{
		"class B extends A {", "field f: A", "static method main(): void",
		"x = new A", "a.foo()", "c = (C) a", "entry Main.main/0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q\n%s", want, out)
		}
	}
}

func TestThrowCatch(t *testing.T) {
	src := `
class Err {}
class IOErr extends Err {}
class Lib {
  static method fail(): void {
    var e: IOErr
    e = new IOErr
    throw e
    return
  }
}
class Main {
  static method main(): void {
    var c: Err
    Lib.fail()
    c = catch Err
    return
  }
}
entry Main.main/0
`
	p := mustParse(t, src)
	var throws, catches int
	for _, m := range p.Methods {
		for _, st := range m.Stmts {
			switch st.(type) {
			case *lang.Throw:
				throws++
			case *lang.Catch:
				catches++
			}
		}
	}
	if throws != 1 || catches != 1 {
		t.Fatalf("throws=%d catches=%d", throws, catches)
	}
	// Round trip.
	text := Print(p)
	if !strings.Contains(text, "throw e") || !strings.Contains(text, "c = catch Err") {
		t.Fatalf("printed form missing exception stmts:\n%s", text)
	}
	p2, err := Parse("reprint.ir", text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if p.Stats() != p2.Stats() {
		t.Fatal("stats drift across exception round trip")
	}
}

func TestThrowErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"undeclared-throw", "class M { static method m(): void { throw x } }\nentry M.m/0", "undeclared variable"},
		{"catch-void", "class M { static method m(): void { var x: M\n x = catch void } }\nentry M.m/0", "cannot catch void"},
		{"catch-unknown", "class M { static method m(): void { var x: M\n x = catch Q } }\nentry M.m/0", "unknown type"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.name, tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err=%v want contains %q", err, tc.want)
			}
		})
	}
}
