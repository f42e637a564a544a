package automata

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mahjong/internal/fpg"
)

// refUniverse is a reference subset construction that shares no code
// with Universe: map-based field and target sets per expansion, string
// keys built per lookup, and per-call visited maps. It reads the FPG
// only through Succ and FieldsOf. Successors are interned in ascending
// field order and traversals are depth-first in transition order, so
// state IDs must match Universe's exactly.
type refUniverse struct {
	g        *fpg.Graph
	states   map[string]*refState
	all      []*refState
	singleOK map[int]bool
	stateOK  map[*refState]bool
}

type refState struct {
	id     int
	nodes  []int
	types  []int
	fields []int
	succ   []*refState // parallel to fields
	done   bool
}

func newRefUniverse(g *fpg.Graph) *refUniverse {
	return &refUniverse{
		g:        g,
		states:   map[string]*refState{},
		singleOK: map[int]bool{},
		stateOK:  map[*refState]bool{},
	}
}

func (r *refUniverse) intern(nodes []int) *refState {
	key := fmt.Sprint(nodes)
	if s, ok := r.states[key]; ok {
		return s
	}
	seen := map[int]bool{}
	s := &refState{id: len(r.all) + 1, nodes: nodes}
	for _, n := range nodes {
		if t := r.g.TypeOf[n]; !seen[t] {
			seen[t] = true
			s.types = append(s.types, t)
		}
	}
	sort.Ints(s.types)
	r.states[key] = s
	r.all = append(r.all, s)
	return s
}

func (r *refUniverse) root(node int) *refState { return r.intern([]int{node}) }

func (r *refUniverse) expand(s *refState) {
	if s.done {
		return
	}
	s.done = true
	fieldSet := map[int]bool{}
	for _, n := range s.nodes {
		for _, f := range r.g.FieldsOf(n) {
			fieldSet[f] = true
		}
	}
	var fields []int
	for f := range fieldSet {
		fields = append(fields, f)
	}
	sort.Ints(fields)
	for _, f := range fields {
		tgtSet := map[int]bool{}
		for _, n := range s.nodes {
			for _, t := range r.g.Succ(n, f) {
				tgtSet[t] = true
			}
		}
		var tgts []int
		for t := range tgtSet {
			tgts = append(tgts, t)
		}
		if len(tgts) == 0 {
			continue
		}
		sort.Ints(tgts)
		s.fields = append(s.fields, f)
		s.succ = append(s.succ, r.intern(tgts))
	}
}

func (r *refUniverse) singleTypeOK(node int) bool {
	if ok, known := r.singleOK[node]; known {
		return ok
	}
	root := r.root(node)
	seen := map[*refState]bool{root: true}
	stack := []*refState{root}
	var visited []*refState
	ok := true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if r.stateOK[s] {
			continue
		}
		if len(s.types) != 1 {
			ok = false
			break
		}
		visited = append(visited, s)
		r.expand(s)
		for _, t := range s.succ {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	if ok {
		for _, s := range visited {
			r.stateOK[s] = true
		}
	}
	r.singleOK[node] = ok
	return ok
}

// reach returns the states reachable from root depth-first, expanding
// each when expand is set.
func (r *refUniverse) reach(root *refState, expand bool) []*refState {
	seen := map[*refState]bool{root: true}
	stack := []*refState{root}
	var out []*refState
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, s)
		if expand {
			r.expand(s)
		}
		for _, t := range s.succ {
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return out
}

// sameUniverse reports the first difference between the two universes'
// state sets, outputs, IDs and transitions.
func sameUniverse(u *Universe, r *refUniverse) error {
	if len(u.all) != len(r.all) {
		return fmt.Errorf("%d states, reference has %d", len(u.all), len(r.all))
	}
	for i, s := range u.all {
		rs := r.all[i]
		if s.ID != rs.id || fmt.Sprint(s.Nodes) != fmt.Sprint(rs.nodes) || fmt.Sprint(s.Types) != fmt.Sprint(rs.types) {
			return fmt.Errorf("state %d = %v types %v, reference %d = %v types %v", s.ID, s.Nodes, s.Types, rs.id, rs.nodes, rs.types)
		}
		if (s.Single >= 0) != (len(rs.types) == 1) {
			return fmt.Errorf("state %d: Single %d, reference types %v", s.ID, s.Single, rs.types)
		}
		if s.expanded != rs.done || len(s.trans) != len(rs.fields) {
			return fmt.Errorf("state %d: expanded %v with %d transitions, reference %v with %d", s.ID, s.expanded, len(s.trans), rs.done, len(rs.fields))
		}
		for j, tr := range s.trans {
			if int(tr.field) != rs.fields[j] || tr.to.ID != rs.succ[j].id {
				return fmt.Errorf("state %d transition %d: %d→%d, reference %d→%d", s.ID, j, tr.field, tr.to.ID, rs.fields[j], rs.succ[j].id)
			}
		}
	}
	return nil
}

// randomFPG builds a random FPG whose fields may point to null only when
// withNull is set. Several objects share each type, so multi-node and
// multi-type states are common.
func randomFPG(rng *rand.Rand, withNull bool) (*fpg.Graph, []int) {
	b := fpg.NewBuilder()
	nTypes := 1 + rng.Intn(4)
	nObjs := 2 + rng.Intn(16)
	nFields := 1 + rng.Intn(5)
	nodes := make([]int, nObjs)
	for i := range nodes {
		nodes[i] = b.AddObj(string(rune('A' + rng.Intn(nTypes))))
	}
	for i, n := 0, rng.Intn(4*nObjs); i < n; i++ {
		to := nodes[rng.Intn(nObjs)]
		if withNull && rng.Intn(5) == 0 {
			to = fpg.NullNode
		}
		b.AddEdge(nodes[rng.Intn(nObjs)], string(rune('f'+rng.Intn(nFields))), to)
	}
	return b.Graph(), nodes
}

// TestQuickSubsetConstructionVsReference drives Universe and the
// reference through the same sequence core's phase 1 issues —
// SINGLETYPE-CHECK per object, then StateCount of each passing DFA —
// followed by a full DFA of every object, and requires identical
// verdicts, counts, state IDs, state sets and transitions throughout.
func TestQuickSubsetConstructionVsReference(t *testing.T) {
	for _, withNull := range []bool{false, true} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			g, nodes := randomFPG(rng, withNull)
			rng.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			u, r := NewUniverse(g), newRefUniverse(g)
			fail := func(format string, args ...any) bool {
				t.Logf("seed=%d withNull=%v: %s", seed, withNull, fmt.Sprintf(format, args...))
				return false
			}
			for _, n := range nodes {
				got, want := u.SingleTypeOK(n), r.singleTypeOK(n)
				if got != want {
					return fail("SingleTypeOK(%d)=%v, reference %v", n, got, want)
				}
				if got {
					if c, rc := u.StateCount(u.Root(n)), len(r.reach(r.root(n), false)); c != rc {
						return fail("StateCount(%d)=%d, reference %d", n, c, rc)
					}
				}
				if err := sameUniverse(u, r); err != nil {
					return fail("after SingleTypeOK(%d): %v", n, err)
				}
			}
			for _, n := range nodes {
				d, rd := u.DFA(n), r.reach(r.root(n), true)
				if c := u.StateCount(d); c != len(rd) {
					return fail("StateCount(DFA(%d))=%d, reference %d", n, c, len(rd))
				}
				if err := sameUniverse(u, r); err != nil {
					return fail("after DFA(%d): %v", n, err)
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatal(err)
		}
	}
}
