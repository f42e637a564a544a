package parser

import (
	"strings"
	"testing"
)

// FuzzParse checks that the parser never panics and that every program
// it accepts survives the Print→Parse round trip with identical
// statistics and identical printed text. Run the seed corpus with `go test`; explore with
// `go test -fuzz=FuzzParse ./internal/parser`.
func FuzzParse(f *testing.F) {
	seeds := []string{
		figure1Src,
		"",
		"entry A.m/0",
		"class A {}\nentry A.m/0",
		"class A { method m(): void { return } }\nentry A.m/0",
		"class A { static method m(): void { return } }\nentry A.m/0",
		"class A { field f: A\n static method m(): void { var x: A\n x = new A\n x.f = x\n x = x.f\n return } }\nentry A.m/0",
		"interface I {}\nclass A implements I { static method m(): void { return } }\nentry A.m/0",
		"class A { static method m(): void { var x: A[]\n x = new A[]\n return } }\nentry A.m/0",
		"class A { static method m(p: A): void { A.m(p) } }\nentry A.m/1",
		"class A extends B {}\nclass B {}\nentry B.m/0",
		"class A { method m(): void { return } \n static method s(): void { var x: A\n x = new A\n special x.A.m() } }\nentry A.s/0",
		"class \x00 {}",
		"class A { field f: }",
		"class A { method m(: void {} }",
		"class A { static method m(): void { var x: A\n x = } }\nentry A.m/0",
		"class A { static method m(p: A): void { A.m(p }\n}\nentry A.m/1",
		"class A { method m(): void { return }\n static method s(): void { var x: A\n x = new A\n special x.m() } }\nentry A.s/0",
		"class A { static method m(): void { var x: A[]\n x[] = } }\nentry A.m/0",
		"class A { static method m(): void { var x: A\n x = (A x } }\nentry A.m/0",
		"class A { static method m(): void { var x: A\n x = new A\n return x x } }\nentry A.m/0",
		strings.Repeat("class A {}\n", 3),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse("fuzz.ir", src)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		text := Print(prog)
		prog2, err := Parse("fuzz2.ir", text)
		if err != nil {
			t.Fatalf("printed form rejected: %v\n--- source ---\n%s\n--- printed ---\n%s", err, src, text)
		}
		if prog.Stats() != prog2.Stats() {
			t.Fatalf("stats drift: %+v vs %+v", prog.Stats(), prog2.Stats())
		}
		if text2 := Print(prog2); text2 != text {
			t.Fatalf("printed form not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
		}
	})
}

// FuzzLexer checks the lexer in isolation: draining next() over
// arbitrary bytes must never panic, must make progress, and must end in
// EOF, with or without a recorded error.
func FuzzLexer(f *testing.F) {
	f.Add("class A { }")
	f.Add("[]()=:,./")
	f.Add("\xff\xfe")
	f.Add("// comment only")
	f.Add("class A {}\nentry A.m/0 \x01")
	f.Fuzz(func(t *testing.T, src string) {
		lx := newLexer(src)
		for n := 0; ; n++ {
			if n > len(src) {
				t.Fatalf("more than %d tokens from %d bytes", n, len(src))
			}
			if lx.next().kind == tokEOF {
				break
			}
		}
		if tok := lx.next(); tok.kind != tokEOF {
			t.Fatalf("token %s after EOF (err %v)", tok, lx.err)
		}
	})
}
