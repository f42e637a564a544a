package bitset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestZeroValue(t *testing.T) {
	var s Set
	if !s.IsEmpty() || s.Len() != 0 {
		t.Fatalf("zero value not empty: len=%d", s.Len())
	}
	if s.Contains(0) || s.Contains(100) {
		t.Fatal("zero value contains bits")
	}
	if !s.Add(5) {
		t.Fatal("Add(5) on empty set reported no change")
	}
	if !s.Contains(5) || s.Len() != 1 {
		t.Fatalf("after Add(5): contains=%v len=%d", s.Contains(5), s.Len())
	}
}

func TestAddNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	New(0).Add(-1)
}

func TestContainsNegative(t *testing.T) {
	s := New(0)
	s.Add(0)
	if s.Contains(-1) {
		t.Fatal("Contains(-1) true")
	}
}

// containsAll is the subset test by single-bit membership.
func containsAll(s, other *Set) bool {
	all := true
	other.ForEach(func(i int) bool {
		all = s.Contains(i)
		return all
	})
	return all
}

func TestEqualAndContainsAll(t *testing.T) {
	a, b := New(0), New(0)
	for _, i := range []int{0, 63, 64, 127, 500} {
		a.Add(i)
	}
	// b grows downward, so its window is rebuilt by prepends.
	for _, i := range []int{500, 127, 64, 63, 0} {
		b.Add(i)
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("equal sets reported unequal")
	}
	// An intersection's window is trimmed to its non-zero words.
	c := IntersectInto(nil, a, setOf(0, 63, 64, 127, 500, 5000))
	if !a.Equal(c) || !c.Equal(a) {
		t.Fatalf("equality broken by window bounds: %v vs %v", a, c)
	}
	b = setOf(0, 63, 64, 127)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("unequal sets reported equal")
	}
	if a.Equal(setOf(1, 63, 64, 127, 500)) {
		t.Fatal("same-count sets with different bits reported equal")
	}
	if !containsAll(a, b) {
		t.Fatal("a should contain all of b")
	}
	if containsAll(b, a) {
		t.Fatal("b should not contain all of a")
	}
	var empty Set
	if !empty.Equal(nil) || a.Equal(nil) || !empty.Equal(New(64)) {
		t.Fatal("empty-set equality wrong")
	}
}

func TestIntersects(t *testing.T) {
	a, b := New(0), New(0)
	a.Add(100)
	b.Add(101)
	if a.Intersects(b) {
		t.Fatal("disjoint sets intersect")
	}
	b.Add(100)
	if !a.Intersects(b) {
		t.Fatal("overlapping sets do not intersect")
	}
	if a.Intersects(nil) {
		t.Fatal("Intersects(nil) true")
	}
	// Disjoint windows, in both argument orders.
	lo, hi := setOf(3, 70), setOf(40000, 50000)
	if lo.Intersects(hi) || hi.Intersects(lo) {
		t.Fatal("disjoint windows intersect")
	}
}

func TestCloneClear(t *testing.T) {
	a := New(0)
	a.Add(70)
	a.Add(7)
	c := a.Clone()
	a.Clear()
	if a.Len() != 0 || !a.IsEmpty() || a.Words() != 0 {
		t.Fatalf("Clear failed: len=%d words=%d", a.Len(), a.Words())
	}
	if c.Len() != 2 || !c.Contains(7) || !c.Contains(70) {
		t.Fatal("Clone affected by Clear")
	}
	// A cleared set refills at an unrelated offset.
	a.Add(90000)
	if a.Len() != 1 || !a.Contains(90000) || a.Contains(70) || a.Words() != 1 {
		t.Fatalf("reuse after Clear: %v words=%d", a, a.Words())
	}
}

func TestString(t *testing.T) {
	s := New(0)
	if s.String() != "{}" {
		t.Fatalf("empty String=%q", s.String())
	}
	s.Add(1)
	s.Add(5)
	if s.String() != "{1 5}" {
		t.Fatalf("String=%q", s.String())
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := New(0)
	for i := 0; i < 10; i++ {
		s.Add(i * 3)
	}
	n := 0
	s.ForEach(func(int) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Fatalf("early stop visited %d", n)
	}
}

// refSet is a map-based reference model for property testing.
type refSet map[int]bool

func (r refSet) slice() []int {
	out := make([]int, 0, len(r))
	for i := range r {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
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

// TestQuickAgainstReference drives a random operation sequence against both
// Set and a map-based model and checks observable equivalence.
func TestQuickAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(0)
		ref := refSet{}
		for op := 0; op < 300; op++ {
			i := rng.Intn(400)
			switch rng.Intn(8) {
			case 0:
				s.Clear()
				ref = refSet{}
			case 1, 2, 3, 4:
				got := s.Add(i)
				want := !ref[i]
				ref[i] = true
				if got != want {
					return false
				}
			default:
				if s.Contains(i) != ref[i] {
					return false
				}
			}
			if s.Len() != len(ref) || checkWindow(s) != nil {
				return false
			}
		}
		return equalInts(s.Slice(), ref.slice())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUnionDiff checks UnionInto's difference against the
// set-theoretic definition.
func TestQuickUnionDiff(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := New(0), New(0)
		refA, refB := refSet{}, refSet{}
		for i := 0; i < 100; i++ {
			x := rng.Intn(300)
			if rng.Intn(2) == 0 {
				a.Add(x)
				refA[x] = true
			} else {
				b.Add(x)
				refB[x] = true
			}
		}
		diff := New(0)
		added := a.UnionInto(b, diff)
		wantDiff := refSet{}
		for x := range refB {
			if !refA[x] {
				wantDiff[x] = true
			}
			refA[x] = true
		}
		return added == len(wantDiff) && equalInts(diff.Slice(), wantDiff.slice()) &&
			equalInts(a.Slice(), refA.slice())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickUnionLaws checks commutativity/idempotence of Union via Equal.
func TestQuickUnionLaws(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a1, b1 := New(0), New(0)
		for _, x := range xs {
			a1.Add(int(x))
		}
		for _, y := range ys {
			b1.Add(int(y))
		}
		ab := a1.Clone()
		ab.Union(b1)
		ba := b1.Clone()
		ba.Union(a1)
		if !ab.Equal(ba) {
			return false
		}
		again := ab.Clone()
		if again.Union(b1) { // idempotent: second union adds nothing
			return false
		}
		return containsAll(ab, a1) && containsAll(ab, b1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionInto(b *testing.B) {
	src := New(0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		src.Add(rng.Intn(1 << 16))
	}
	var dst, diff Set
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Clear()
		diff.Clear()
		dst.UnionInto(src, &diff)
	}
}
