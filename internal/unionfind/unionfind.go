// Package unionfind implements a disjoint-set forest with union by rank
// and path compression, as used by Mahjong's heap modeler (Algorithm 1)
// and by the Hopcroft–Karp automata equivalence checker (Algorithm 4).
//
// With both heuristics the amortized cost of each operation is effectively
// constant (inverse Ackermann), which §5 of the paper relies on.
package unionfind

import "sync/atomic"

// Forest is a disjoint-set forest over the integers [0, n), created by
// New.
//
// Concurrency: the heap modeler's merge workers call Union from
// multiple goroutines on provably disjoint trees (merging never crosses
// type groups), which keeps the parent/rank element writes race-free by
// partition. The set counter is the one piece of state those disjoint
// unions share, so it alone is atomic.
type Forest struct {
	parent []int32
	rank   []int8
	sets   atomic.Int64
}

// New returns a forest of n singleton sets {0}, {1}, …, {n-1}.
func New(n int) *Forest {
	f := &Forest{
		parent: make([]int32, n),
		rank:   make([]int8, n),
	}
	f.sets.Store(int64(n))
	for i := range f.parent {
		f.parent[i] = int32(i)
	}
	return f
}

// Sets returns the current number of disjoint sets.
func (f *Forest) Sets() int { return int(f.sets.Load()) }

// Find returns the representative of the set containing x,
// compressing the path from x to the root.
func (f *Forest) Find(x int) int {
	root := x
	for int(f.parent[root]) != root {
		root = int(f.parent[root])
	}
	for int(f.parent[x]) != root {
		x, f.parent[x] = int(f.parent[x]), int32(root)
	}
	return root
}

// Union merges the sets containing x and y and reports whether a merge
// happened (false when they were already in the same set).
func (f *Forest) Union(x, y int) bool {
	rx, ry := f.Find(x), f.Find(y)
	if rx == ry {
		return false
	}
	if f.rank[rx] < f.rank[ry] {
		rx, ry = ry, rx
	}
	f.parent[ry] = int32(rx)
	if f.rank[rx] == f.rank[ry] {
		f.rank[rx]++
	}
	f.sets.Add(-1)
	return true
}

// Same reports whether x and y are in the same set.
func (f *Forest) Same(x, y int) bool { return f.Find(x) == f.Find(y) }

// Classes returns the members of every set with at least one element,
// keyed by representative. Members appear in ascending order.
func (f *Forest) Classes() map[int][]int {
	out := make(map[int][]int, f.sets.Load())
	for x := range f.parent {
		r := f.Find(x)
		out[r] = append(out[r], x)
	}
	return out
}
