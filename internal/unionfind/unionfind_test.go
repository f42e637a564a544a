package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingletons(t *testing.T) {
	f := New(5)
	if f.Sets() != 5 {
		t.Fatalf("sets=%d", f.Sets())
	}
	for i := 0; i < 5; i++ {
		if f.Find(i) != i {
			t.Fatalf("Find(%d)=%d", i, f.Find(i))
		}
	}
}

func TestUnionFind(t *testing.T) {
	f := New(6)
	if !f.Union(0, 1) {
		t.Fatal("first union reported no change")
	}
	if f.Union(1, 0) {
		t.Fatal("repeated union reported change")
	}
	f.Union(2, 3)
	f.Union(0, 3)
	if !f.Same(1, 2) {
		t.Fatal("1 and 2 should be joined")
	}
	if f.Same(0, 4) {
		t.Fatal("0 and 4 should be disjoint")
	}
	if f.Sets() != 3 { // {0,1,2,3}, {4}, {5}
		t.Fatalf("sets=%d want 3", f.Sets())
	}
}

func TestClasses(t *testing.T) {
	f := New(5)
	f.Union(0, 4)
	f.Union(1, 2)
	cls := f.Classes()
	if len(cls) != 3 {
		t.Fatalf("classes=%d want 3", len(cls))
	}
	total := 0
	for rep, members := range cls {
		total += len(members)
		for _, m := range members {
			if f.Find(m) != rep {
				t.Fatalf("member %d has rep %d, keyed under %d", m, f.Find(m), rep)
			}
		}
	}
	if total != 5 {
		t.Fatalf("members total %d want 5", total)
	}
}

// TestQuickEquivalence checks that union-find implements exactly the
// reflexive-transitive-symmetric closure of the union edges, against a
// naive reachability model.
func TestQuickEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		uf := New(n)
		// naive model: adjacency + BFS
		adj := make([][]int, n)
		for i := 0; i < n+10; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			uf.Union(a, b)
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		reach := func(a, b int) bool {
			seen := make([]bool, n)
			stack := []int{a}
			seen[a] = true
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if x == b {
					return true
				}
				for _, y := range adj[x] {
					if !seen[y] {
						seen[y] = true
						stack = append(stack, y)
					}
				}
			}
			return false
		}
		for i := 0; i < 50; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if uf.Same(a, b) != reach(a, b) {
				return false
			}
		}
		// set count == number of connected components
		comp := 0
		seen := make([]bool, n)
		for i := 0; i < n; i++ {
			if seen[i] {
				continue
			}
			comp++
			stack := []int{i}
			seen[i] = true
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, y := range adj[x] {
					if !seen[y] {
						seen[y] = true
						stack = append(stack, y)
					}
				}
			}
		}
		return comp == uf.Sets()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	const n = 1 << 14
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < b.N; i++ {
		f := New(n)
		for j := 0; j < n; j++ {
			f.Union(rng.Intn(n), rng.Intn(n))
		}
	}
}
