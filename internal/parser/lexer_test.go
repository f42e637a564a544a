package parser

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLexerAllocFree pins the streaming lexer's cost: tokens are slices
// of the source, so lexing a whole subject allocates nothing.
func TestLexerAllocFree(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "luindex.ir"))
	if err != nil {
		t.Fatal(err)
	}
	src := string(data)
	tokens := 0
	allocs := testing.AllocsPerRun(5, func() {
		lx := newLexer(src)
		for tokens = 0; lx.next().kind != tokEOF; tokens++ {
		}
		if lx.err != nil {
			t.Fatal(lx.err)
		}
	})
	if tokens == 0 {
		t.Fatal("no tokens lexed")
	}
	if allocs != 0 {
		t.Fatalf("lexing luindex.ir allocated %.0f times per run, want 0", allocs)
	}
}
