package bitset

import (
	"math/rand"
	"testing"
)

func setOf(bits ...int) *Set {
	s := New(0)
	for _, b := range bits {
		s.Add(b)
	}
	return s
}

func TestUnionInto(t *testing.T) {
	dst := setOf(1, 64, 200)
	src := setOf(1, 2, 64, 300)
	diff := New(0)
	if added := dst.UnionInto(src, diff); added != 2 {
		t.Fatalf("added=%d, want 2", added)
	}
	if !dst.Equal(setOf(1, 2, 64, 200, 300)) {
		t.Fatalf("dst=%v", dst)
	}
	if !diff.Equal(setOf(2, 300)) {
		t.Fatalf("diff=%v", diff)
	}
	// Accumulation: a second union adds its new bits to the same diff.
	if added := dst.UnionInto(setOf(2, 500), diff); added != 1 {
		t.Fatalf("second added=%d, want 1", added)
	}
	if !diff.Equal(setOf(2, 300, 500)) {
		t.Fatalf("accumulated diff=%v", diff)
	}
	// No-op union reports zero and leaves diff alone.
	if added := dst.UnionInto(setOf(1, 2), diff); added != 0 {
		t.Fatalf("no-op added=%d", added)
	}
	if added := dst.UnionInto(nil, diff); added != 0 {
		t.Fatalf("nil src added=%d", added)
	}
}

func TestUnionIntoZeroValues(t *testing.T) {
	var dst, diff Set
	src := setOf(0, 63, 64, 127, 1000)
	if added := dst.UnionInto(src, &diff); added != 5 {
		t.Fatalf("added=%d, want 5", added)
	}
	if !dst.Equal(src) || !diff.Equal(src) {
		t.Fatalf("dst=%v diff=%v", &dst, &diff)
	}
}

// unionDiff is the reference for UnionInto: it adds src's bits to s one
// at a time and returns the bits that were new, or nil.
func unionDiff(s, src *Set) *Set {
	var diff *Set
	src.ForEach(func(i int) bool {
		if s.Add(i) {
			if diff == nil {
				diff = New(0)
			}
			diff.Add(i)
		}
		return true
	})
	return diff
}

func TestUnionIntoMatchesUnionDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a1, a2, src := New(0), New(0), New(0)
		for i := 0; i < 50; i++ {
			b := rng.Intn(512)
			if rng.Intn(2) == 0 {
				a1.Add(b)
				a2.Add(b)
			} else {
				src.Add(b)
			}
		}
		want := unionDiff(a1, src)
		got := New(0)
		added := a2.UnionInto(src, got)
		if want == nil {
			if added != 0 || !got.IsEmpty() {
				t.Fatalf("trial %d: reference added nothing but UnionInto added %d", trial, added)
			}
		} else if !got.Equal(want) || added != want.Len() {
			t.Fatalf("trial %d: diff %v vs %v (added=%d)", trial, got, want, added)
		}
		if !a1.Equal(a2) {
			t.Fatalf("trial %d: destinations diverged: %v vs %v", trial, a1, a2)
		}
	}
}

// TestUnionIntoCoveredWindowAllocs pins the solver's steady state: a
// union into a set whose window already covers the source, with a diff
// whose capacity holds the new bits, allocates nothing.
func TestUnionIntoCoveredWindowAllocs(t *testing.T) {
	src := setOf(64010, 64500, 64990)
	var dst, diff Set
	dst.Add(64000) // dst's window, words 1000 to 1015, covers src's
	dst.Add(65000)
	diff.Add(64000)
	diff.Add(65000)
	allocs := testing.AllocsPerRun(100, func() {
		// Refill both sets to their starting state within their capacity.
		dst.Clear()
		diff.Clear()
		dst.Add(64000)
		dst.Add(65000)
		if dst.UnionInto(src, &diff) != 3 {
			t.Fatal("UnionInto added the wrong number of bits")
		}
	})
	if allocs != 0 {
		t.Fatalf("UnionInto into a covering window allocated %.1f times per run", allocs)
	}
	if !diff.Equal(src) || dst.Len() != 5 {
		t.Fatalf("diff=%v dst=%v", &diff, &dst)
	}
}

func TestIntersectInto(t *testing.T) {
	a := setOf(1, 64, 200, 300)
	b := setOf(64, 300, 999)
	got := IntersectInto(nil, a, b)
	if !got.Equal(setOf(64, 300)) || got.Len() != 2 {
		t.Fatalf("got=%v len=%d", got, got.Len())
	}
	// Reuse: a wide stale dst must be fully overwritten, including words
	// beyond the new intersection's width.
	dst := setOf(5000)
	got = IntersectInto(dst, a, b)
	if got != dst || !got.Equal(setOf(64, 300)) {
		t.Fatalf("reused dst=%v", got)
	}
	// Inputs of different word lengths, zero-value operands.
	var zero Set
	if out := IntersectInto(nil, &zero, a); !out.IsEmpty() {
		t.Fatalf("zero ∩ a = %v", out)
	}
	if out := IntersectInto(nil, a, &zero); !out.IsEmpty() {
		t.Fatalf("a ∩ zero = %v", out)
	}
	// Growth past the current word length of dst.
	small := New(0)
	wide1, wide2 := setOf(100000, 100001), setOf(100001, 100002)
	if out := IntersectInto(small, wide1, wide2); !out.Equal(setOf(100001)) {
		t.Fatalf("wide intersection=%v", out)
	}
}

func TestIntersectIntoRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dst := New(0) // reused across trials, as the solver's scratch is
	for trial := 0; trial < 200; trial++ {
		a, b := New(0), New(0)
		for i := 0; i < 80; i++ {
			x := rng.Intn(2048)
			switch rng.Intn(3) {
			case 0:
				a.Add(x)
			case 1:
				b.Add(x)
			default:
				a.Add(x)
				b.Add(x)
			}
		}
		want := map[int]bool{}
		a.ForEach(func(i int) bool {
			if b.Contains(i) {
				want[i] = true
			}
			return true
		})
		got := IntersectInto(dst, a, b)
		if got.Len() != len(want) {
			t.Fatalf("trial %d: len=%d want %d", trial, got.Len(), len(want))
		}
		got.ForEach(func(i int) bool {
			if !want[i] {
				t.Fatalf("trial %d: stray bit %d", trial, i)
			}
			return true
		})
	}
}
