package automata

import (
	"runtime/debug"

	"mahjong/internal/failure"
	"mahjong/internal/faultinject"
)

// Equivalent implements Algorithm 4: the Hopcroft–Karp near-linear DFA
// equivalence check, adapted to 6-tuple sequential automata. Two DFAs
// are equivalent iff every pair of states merged by the check has the
// same output (type set); missing transitions are routed to a
// distinguished error state with its own output.
//
// Both roots must be fully expanded (Universe.DFA, or a passing
// SingleTypeOK). The check allocates
// only local structures — a sparse union-find over the states it
// actually touches, which is what keeps each check near-linear in the
// smaller automaton rather than in the whole shared universe — so it is
// safe to run concurrently on a read-only universe.
func (u *Universe) Equivalent(a, b *State) bool {
	// Injection seam for the fault matrix: this code runs inside the heap
	// modeler's parallel merge workers, so a bug here is exactly the
	// "panic in a worker goroutine" case the pipeline's failure isolation
	// must survive. The pre-typed stage keeps "automata.equiv" (not the
	// enclosing stage) visible in per-stage failure counters.
	if err := faultinject.Fire(faultinject.StageEquiv); err != nil {
		panic(&failure.InternalError{Stage: faultinject.StageEquiv, Value: err, Stack: debug.Stack()})
	}
	if a == b {
		return true // hash-consing fast path: identical automata share the root
	}
	if !sameTypes(a, b) {
		return false
	}
	uf := sparseUF{parent: make(map[int]int, 16)}
	type pair struct{ p, q *State }
	uf.union(a.ID, b.ID)
	stack := []pair{{a, b}}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		w := fieldWalk{p: top.p.trans, q: top.q.trans}
		for {
			_, n1, n2, more := w.next()
			if !more {
				break
			}
			// A transition missing on one side goes to q_error; q_error's
			// output differs from every real state's, so the pair is
			// inequivalent.
			if n1 == nil || n2 == nil {
				return false
			}
			r1, r2 := uf.find(n1.ID), uf.find(n2.ID)
			if r1 == r2 {
				continue
			}
			// The modified output check (line 19 of Algorithm 4), applied
			// on the fly: states can only be merged when their type sets
			// agree.
			if !sameTypes(n1, n2) {
				return false
			}
			uf.union(r1, r2)
			stack = append(stack, pair{n1, n2})
		}
	}
	return true
}

// sparseUF is a map-backed union-find with path halving, sized by the
// states a single equivalence check visits (usually a handful) rather
// than the whole universe.
type sparseUF struct {
	parent map[int]int
}

func (s *sparseUF) find(x int) int {
	p, ok := s.parent[x]
	if !ok {
		s.parent[x] = x
		return x
	}
	for p != x {
		gp, ok := s.parent[p]
		if !ok {
			gp = p
		}
		s.parent[x] = gp
		x, p = p, gp
	}
	return x
}

func (s *sparseUF) union(x, y int) {
	rx, ry := s.find(x), s.find(y)
	if rx != ry {
		s.parent[ry] = rx
	}
}

// sameTypes compares the output (type) sets of two states.
func sameTypes(a, b *State) bool {
	if len(a.Types) != len(b.Types) {
		return false
	}
	for i := range a.Types {
		if a.Types[i] != b.Types[i] {
			return false
		}
	}
	return true
}

// fieldWalk merges the sorted transition lists of two states, visiting
// the union of their alphabets (Σ1 ∪ Σ2 in Algorithm 4) in ascending
// field order without allocating.
type fieldWalk struct {
	p, q []transition
}

// next returns the next field of the union and the successors of both
// states under it; a nil successor means that state lacks the field.
// more is false once both lists are exhausted.
func (w *fieldWalk) next() (field int32, n1, n2 *State, more bool) {
	switch {
	case len(w.p) == 0 && len(w.q) == 0:
		return 0, nil, nil, false
	case len(w.q) == 0 || len(w.p) > 0 && w.p[0].field < w.q[0].field:
		field, n1 = w.p[0].field, w.p[0].to
		w.p = w.p[1:]
	case len(w.p) == 0 || w.q[0].field < w.p[0].field:
		field, n2 = w.q[0].field, w.q[0].to
		w.q = w.q[1:]
	default:
		field, n1, n2 = w.p[0].field, w.p[0].to, w.q[0].to
		w.p, w.q = w.p[1:], w.q[1:]
	}
	return field, n1, n2, true
}
