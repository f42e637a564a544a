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
// SingleTypeOK). Equivalent never interns or expands, so it does not
// change state IDs. Its union-find over state IDs and its pair stack
// are universe-owned scratch, reset per check by an epoch stamp, so a
// check touches only the states it visits and a warmed universe checks
// without allocating.
func (u *Universe) Equivalent(a, b *State) bool {
	// Injection seam for the fault matrix: a bug here must fail the
	// heap modeler's build, not the process. The pre-typed stage keeps
	// "automata.equiv" (not the enclosing stage) visible in per-stage
	// failure counters.
	if err := faultinject.Fire(faultinject.StageEquiv); err != nil {
		panic(&failure.InternalError{Stage: faultinject.StageEquiv, Value: err, Stack: debug.Stack()})
	}
	if a == b {
		return true // hash-consing fast path: identical automata share the root
	}
	if !sameTypes(a, b) {
		return false
	}
	u.resetUF()
	u.union(a.ID, b.ID)
	stack := append(u.pairStack[:0], statePair{a, b})
	defer func() { u.pairStack = stack[:0] }()
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
			r1, r2 := u.find(n1.ID), u.find(n2.ID)
			if r1 == r2 {
				continue
			}
			// The modified output check (line 19 of Algorithm 4), applied
			// on the fly: states can only be merged when their type sets
			// agree.
			if !sameTypes(n1, n2) {
				return false
			}
			u.union(r1, r2)
			stack = append(stack, statePair{n1, n2})
		}
	}
	return true
}

// statePair is one pending pair of Equivalent's Hopcroft–Karp walk.
type statePair struct{ p, q *State }

// resetUF starts a fresh union-find over state IDs: entries stamped
// with an older epoch read as singletons. The slices grow to cover
// every state interned so far; Equivalent interns none, so one check
// never outgrows them.
func (u *Universe) resetUF() {
	if n := len(u.all) + 1; len(u.ufParent) < n {
		n += n / 2
		u.ufParent = make([]int32, n)
		u.ufMark = make([]uint32, n)
		u.ufEpoch = 0
	}
	u.ufEpoch++
	if u.ufEpoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(u.ufMark)
		u.ufEpoch = 1
	}
}

// find returns the representative of state ID x, halving the path.
// Every parent link was set in the current epoch, so only x itself can
// carry a stale stamp.
func (u *Universe) find(x int) int {
	if u.ufMark[x] != u.ufEpoch {
		u.ufMark[x] = u.ufEpoch
		u.ufParent[x] = int32(x)
		return x
	}
	for {
		p := int(u.ufParent[x])
		if p == x {
			return x
		}
		gp := u.ufParent[p]
		u.ufParent[x] = gp
		x = int(gp)
	}
}

// union joins the classes of state IDs x and y.
func (u *Universe) union(x, y int) {
	if rx, ry := u.find(x), u.find(y); rx != ry {
		u.ufParent[ry] = int32(rx)
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
