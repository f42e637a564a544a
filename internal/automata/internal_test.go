package automata

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mahjong/internal/fpg"
	"mahjong/internal/unionfind"
)

// scratchUF returns a universe whose Equivalent union-find covers state
// IDs [0, n], started on a fresh epoch.
func scratchUF(n int) *Universe {
	u := &Universe{all: make([]*State, n)}
	u.resetUF()
	return u
}

func TestSparseUF(t *testing.T) {
	u := scratchUF(10)
	if u.find(7) != 7 {
		t.Fatal("fresh element should be its own root")
	}
	u.union(1, 2)
	u.union(2, 3)
	if u.find(1) != u.find(3) {
		t.Fatal("transitive union broken")
	}
	if u.find(1) == u.find(9) {
		t.Fatal("disjoint elements merged")
	}
	u.union(1, 1) // self-union is a no-op
	if u.find(1) != u.find(2) {
		t.Fatal("self-union corrupted the set")
	}
	// A new epoch forgets every earlier union without clearing the slices.
	u.resetUF()
	if u.find(1) == u.find(3) {
		t.Fatal("union survived the epoch reset")
	}
	// An epoch counter that wraps around clears the stamps instead of
	// letting old ones alias the new epoch.
	u.union(1, 3)
	u.ufEpoch = ^uint32(0)
	u.ufMark[2], u.ufParent[2] = 1, 3
	u.resetUF()
	if u.ufEpoch != 1 || u.find(2) != 2 {
		t.Fatalf("wrapped epoch %d kept a stale link: find(2)=%d", u.ufEpoch, u.find(2))
	}
}

// TestQuickSparseVsDense: the epoch-stamped union-find must agree with
// the dense Forest on arbitrary operation sequences, across resets.
func TestQuickSparseVsDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		sp := scratchUF(n)
		for round := 0; round < 3; round++ {
			sp.resetUF()
			dn := unionfind.New(n + 1)
			for i := 0; i < 60; i++ {
				a, b := rng.Intn(n+1), rng.Intn(n+1)
				if rng.Intn(2) == 0 {
					sp.union(a, b)
					dn.Union(a, b)
				} else if (sp.find(a) == sp.find(b)) != dn.Same(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionFields(t *testing.T) {
	b := fpg.NewBuilder()
	a1 := b.AddObj("A")
	a2 := b.AddObj("A")
	x := b.AddObj("X")
	b.AddEdge(a1, "f", x)
	b.AddEdge(a1, "h", x)
	b.AddEdge(a2, "g", x)
	b.AddEdge(a2, "h", x)
	g := b.Graph()
	u := NewUniverse(g)
	s1, s2 := u.DFA(a1), u.DFA(a2)
	got := walkFields(t, s1, s2)
	// Fields f, h on a1 and g, h on a2 → union of 3 distinct fields.
	if len(got) != 3 {
		t.Fatalf("fieldWalk visited %v, want 3 fields", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("fieldWalk not sorted/deduped")
		}
	}
	// Symmetric.
	rev := walkFields(t, s2, s1)
	if len(rev) != len(got) {
		t.Fatal("fieldWalk not symmetric")
	}
}

// walkFields drains a fieldWalk over p and q, checking each visited
// successor against Next.
func walkFields(t *testing.T, p, q *State) []int32 {
	var out []int32
	w := fieldWalk{p: p.trans, q: q.trans}
	for {
		f, n1, n2, more := w.next()
		if !more {
			return out
		}
		if n1 != p.Next(f) || n2 != q.Next(f) {
			t.Fatalf("field %d: fieldWalk successors disagree with Next", f)
		}
		out = append(out, f)
	}
}

func TestStateAccessors(t *testing.T) {
	b := fpg.NewBuilder()
	a := b.AddObj("A")
	x := b.AddObj("X")
	b.AddEdge(a, "f", x)
	g := b.Graph()
	u := NewUniverse(g)
	root := u.DFA(a)
	if root.Single < 0 {
		t.Fatal("singleton root should have a single type")
	}
	fs := root.Fields()
	if len(fs) != 1 {
		t.Fatalf("fields=%v", fs)
	}
	next := root.Next(fs[0])
	if next == nil || next.Single < 0 {
		t.Fatal("transition missing")
	}
	if root.Next(999) != nil {
		t.Fatal("absent transition should be nil (q_error)")
	}
	if u.Graph() != g {
		t.Fatal("Graph accessor broken")
	}
}
