package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// readTree flattens a corpus directory into filename -> contents.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(buf)
	}
	return out
}

// TestSearchDeterministic pins the corpus-regeneration contract: the
// same -seed produces byte-for-byte identical .ir files and manifest
// across runs and across GOMAXPROCS values.
func TestSearchDeterministic(t *testing.T) {
	gen := func(procs int) map[string]string {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		dir := t.TempDir()
		var sb strings.Builder
		if err := run([]string{"-search", "-seed=42", "-out", dir}, &sb); err != nil {
			t.Fatal(err)
		}
		return readTree(t, dir)
	}
	first := gen(1)
	if len(first) < 3 {
		t.Fatalf("corpus too small: %d files", len(first))
	}
	for _, procs := range []int{1, runtime.NumCPU()} {
		again := gen(procs)
		if len(again) != len(first) {
			t.Fatalf("GOMAXPROCS=%d: %d files, want %d", procs, len(again), len(first))
		}
		for name, want := range first {
			if again[name] != want {
				t.Fatalf("GOMAXPROCS=%d: %s differs between runs", procs, name)
			}
		}
	}
}

// TestRandomSeedDeterministic pins -random -seed output byte-for-byte.
func TestRandomSeedDeterministic(t *testing.T) {
	dump := func(args ...string) string {
		var sb strings.Builder
		if err := run(args, &sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a := dump("-random", "-seed=7")
	b := dump("-random", "-seed=7")
	if a != b || a == "" {
		t.Fatalf("-random -seed=7 not reproducible")
	}
	if c := dump("-random", "-seed=8"); c == a {
		t.Fatalf("different seeds produced identical programs")
	}
	sized := dump("-random", "-seed=7", "-stmts=30")
	if sized == a || sized == "" {
		t.Fatalf("-stmts did not change the program")
	}
}

// TestBenchmarkDump keeps the original mode working: the streamed dump
// of luindex reproduces the parser's checked-in golden byte for byte.
func TestBenchmarkDump(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-benchmark", "luindex"}, &sb); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../internal/parser/testdata/luindex.ir")
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Fatalf("-benchmark=luindex: %d bytes differ from internal/parser/testdata/luindex.ir (%d bytes)", sb.Len(), len(want))
	}
}
