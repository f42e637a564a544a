package delta

import (
	"crypto/sha256"
	"math/rand"
	"testing"

	"mahjong/internal/parser"
	"mahjong/internal/synth"
)

// TestHasherReusesBuffer pins that hashing every unit of a program
// allocates no buffer per unit: once the hasher's buffer has grown to
// the largest unit, a pass over all methods and classes allocates
// nothing. It also checks the hashes against the canonical strings.
func TestHasherReusesBuffer(t *testing.T) {
	profile, err := synth.ProfileByName("checkstyle")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := synth.Generate(profile)
	if err != nil {
		t.Fatal(err)
	}
	var h hasher
	for _, m := range prog.Methods {
		if h.method(m) != sha256.Sum256([]byte(parser.MethodText(m))) {
			t.Fatalf("%s: method hash differs from the hash of its MethodText", m)
		}
	}
	for _, c := range prog.Classes {
		if h.shape(c) != sha256.Sum256([]byte(parser.ClassShape(c))) {
			t.Fatalf("%s: shape hash differs from the hash of its ClassShape", c.Name)
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, m := range prog.Methods {
			h.method(m)
		}
		for _, c := range prog.Classes {
			h.shape(c)
		}
	})
	if allocs != 0 {
		t.Fatalf("hashing %d methods and %d classes: %v allocations per pass, want 0", len(prog.Methods), len(prog.Classes), allocs)
	}
}

// BenchmarkCompute diffs checkstyle against one random body edit of
// itself, the diff every warm build of that subject starts with.
//
//	go test ./internal/delta -run '^$' -bench Compute -benchmem
func BenchmarkCompute(b *testing.B) {
	profile, err := synth.ProfileByName("checkstyle")
	if err != nil {
		b.Fatal(err)
	}
	base, err := synth.Generate(profile)
	if err != nil {
		b.Fatal(err)
	}
	next, _, err := RandomEdit(base, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := Compute(base, next, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
