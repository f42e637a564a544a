// Package automata implements the automata view of the field points-to
// graph (Figure 4 of the paper) and the three algorithms built on it:
//
//   - the NFA of an object is the FPG restricted to the nodes reachable
//     from it (Algorithm 2); it is never materialized, the FPG is read
//     directly;
//   - subset construction turns that NFA into a DFA whose states are
//     sets of FPG nodes (Algorithm 3); states are hash-consed in a
//     Universe so automata of different objects share structure (§5,
//     "shared sequential automata");
//   - a Hopcroft–Karp equivalence check over 6-tuple DFAs, with the
//     paper's modification that two states are equivalent only when
//     their output (type) sets agree, and missing transitions go to a
//     distinguished error state (Algorithm 4).
//
// SINGLETYPE-CHECK (Condition 2 of Definition 2.1) is implemented on the
// same shared DFA states: an object passes iff every DFA state reachable
// from its root has a singleton type set.
package automata

import (
	"encoding/binary"
	"slices"
	"sort"

	"mahjong/internal/fpg"
)

// State is a hash-consed DFA state: a set of FPG nodes. Its output is
// the set of types of those nodes; Single is >= 0 when that set is a
// singleton (and then holds the type ID).
type State struct {
	ID    int     // universe-wide id (used by the equivalence checker)
	Nodes []int32 // sorted FPG node IDs
	Types []int32 // sorted type IDs of Nodes (the output set γ')

	// Single is the unique type ID when len(Types) == 1, else -1.
	Single int32

	// trans are the outgoing transitions sorted by field ID; valid only
	// after expansion.
	trans    []transition
	expanded bool
	// allSingle is set once every state reachable from this one is
	// known to be single-typed (SINGLETYPE-CHECK memo across objects).
	allSingle bool
	// claimed is set once a ClaimStates walk has counted this state.
	claimed bool
	// mark is the epoch of the last traversal that reached this state.
	mark uint32
}

type transition struct {
	field int32
	to    *State
}

// Universe hash-conses DFA states over one FPG so that automata of
// different objects share their common parts.
//
// A Universe is used from one goroutine. Every method may write to it:
// Root, SingleTypeOK and DFA intern and expand states, the traversals
// stamp the states they reach with a per-universe epoch instead of
// allocating a visited set, and Equivalent keeps its union-find and
// pair stack in universe-owned scratch. Package core's merge loop
// drives all of them in sequence.
type Universe struct {
	g      *fpg.Graph
	states map[string]*State
	all    []*State

	roots    []*State // root state per FPG node (index = node ID), lazily filled
	singleOK []int8   // per node: 0 unknown, 1 ok, 2 fail
	epoch    uint32   // current traversal stamp (see State.mark)

	// Scratch reused across expansions; never retained by a State.
	pairs   []uint64 // (field << 32 | target) pairs of a multi-node state
	nodes   []int32  // successor node set being interned
	key     []byte   // hash-consing key of nodes
	stack   []*State // traversal stack
	visited []*State // states a SingleTypeOK traversal passed

	// Equivalent's scratch: a union-find over state IDs whose entries
	// count only when stamped with the current check's epoch.
	ufParent  []int32
	ufMark    []uint32
	ufEpoch   uint32
	pairStack []statePair
}

// NewUniverse creates an empty universe over g.
func NewUniverse(g *fpg.Graph) *Universe {
	return &Universe{
		g:        g,
		states:   make(map[string]*State),
		roots:    make([]*State, len(g.Objs)),
		singleOK: make([]int8, len(g.Objs)),
	}
}

// Graph returns the underlying FPG.
func (u *Universe) Graph() *fpg.Graph { return u.g }

// NumStates returns the number of distinct DFA states created so far;
// shared-automata effectiveness is measured against the sum of per-object
// state counts.
func (u *Universe) NumStates() int { return len(u.all) }

// intern returns the canonical state for a sorted node set. nodes may be
// scratch: a new state copies it, and a lookup of an existing state
// allocates nothing (the string conversion in the map index does not
// escape).
func (u *Universe) intern(nodes []int32) *State {
	key := u.key[:0]
	for _, n := range nodes {
		key = binary.LittleEndian.AppendUint32(key, uint32(n))
	}
	u.key = key
	if s, ok := u.states[string(key)]; ok {
		return s
	}
	own := slices.Clone(nodes)
	types := make([]int32, 0, 1)
	for _, n := range own {
		types = append(types, int32(u.g.TypeOf[n]))
	}
	slices.Sort(types)
	types = slices.Compact(types)
	s := &State{ID: len(u.all) + 1, Nodes: own, Types: slices.Clip(types), Single: -1}
	if len(types) == 1 {
		s.Single = types[0]
	}
	u.states[string(key)] = s
	u.all = append(u.all, s)
	return s
}

// Root returns the (unexpanded) root state {node}.
func (u *Universe) Root(node int) *State {
	if s := u.roots[node]; s != nil {
		return s
	}
	s := u.intern(append(u.nodes[:0], int32(node)))
	u.roots[node] = s
	return s
}

// expand computes the transitions of s (Algorithm 3, one step): for each
// field on which any member has an out-edge, the successor state is the
// union of member targets under that field. Successors are interned in
// ascending field order, which fixes state IDs.
//
// Fields are the union across members. For single-type states all
// members have the same class and hence the same declared fields, so
// this matches Algorithm 3's "pick any member"; for multi-type states
// the union keeps the construction well-defined. The null node's
// implicit self-loops put null in the successor under every field of
// the union.
func (u *Universe) expand(s *State) {
	if s.expanded {
		return
	}
	s.expanded = true
	if len(s.Nodes) == 1 && s.Nodes[0] != fpg.NullNode {
		// One member: its edge groups are the transitions as they stand
		// (sorted by field; targets non-empty, sorted and deduplicated).
		es := u.g.Out[s.Nodes[0]]
		s.trans = make([]transition, 0, len(es))
		for _, e := range es {
			tgts := u.nodes[:0]
			for _, t := range e.Targets {
				tgts = append(tgts, int32(t))
			}
			u.nodes = tgts
			s.trans = append(s.trans, transition{field: int32(e.Field), to: u.intern(tgts)})
		}
		return
	}
	// Several members: gather (field, target) pairs, then sort and
	// compact them so each field's run is its successor set. The null
	// node has no edges of its own; its self-loops are added per field.
	nodes := s.Nodes
	withNull := nodes[0] == fpg.NullNode
	if withNull {
		nodes = nodes[1:]
	}
	pairs := u.pairs[:0]
	for _, n := range nodes {
		for _, e := range u.g.Out[n] {
			for _, t := range e.Targets {
				pairs = append(pairs, uint64(e.Field)<<32|uint64(t))
			}
		}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs)
	u.pairs = pairs
	nf := 0
	for i := range pairs {
		if i == 0 || pairs[i]>>32 != pairs[i-1]>>32 {
			nf++
		}
	}
	s.trans = make([]transition, 0, nf)
	for i := 0; i < len(pairs); {
		f := pairs[i] >> 32
		tgts := u.nodes[:0]
		if withNull && uint32(pairs[i]) != fpg.NullNode {
			tgts = append(tgts, fpg.NullNode) // null sorts first
		}
		for ; i < len(pairs) && pairs[i]>>32 == f; i++ {
			tgts = append(tgts, int32(uint32(pairs[i])))
		}
		u.nodes = tgts
		s.trans = append(s.trans, transition{field: int32(f), to: u.intern(tgts)})
	}
}

// Next returns δ(s, field), or nil when the transition is absent (the
// conceptual q_error). s must have been expanded (via DFA or
// SingleTypeOK reaching it).
func (s *State) Next(field int32) *State {
	i := sort.Search(len(s.trans), func(i int) bool { return s.trans[i].field >= field })
	if i < len(s.trans) && s.trans[i].field == field {
		return s.trans[i].to
	}
	return nil
}

// Fields returns the field IDs with outgoing transitions, ascending.
func (s *State) Fields() []int32 {
	out := make([]int32, len(s.trans))
	for i, tr := range s.trans {
		out[i] = tr.field
	}
	return out
}

// SingleTypeOK implements SINGLETYPE-CHECK (Condition 2 of
// Definition 2.1) for the object at the given FPG node: every DFA state
// reachable from {node} must have a singleton type set. Results are
// memoized per node, and states proven all-single are memoized across
// objects. A passing object's DFA is fully expanded afterwards.
func (u *Universe) SingleTypeOK(node int) bool {
	switch u.singleOK[node] {
	case 1:
		return true
	case 2:
		return false
	}
	root := u.Root(node)
	mark := u.nextEpoch()
	visited := u.visited[:0]
	stack := append(u.stack[:0], root)
	root.mark = mark
	ok := true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.allSingle {
			continue // proven all-single on a previous traversal
		}
		if s.Single < 0 {
			ok = false
			break
		}
		visited = append(visited, s)
		u.expand(s)
		for _, tr := range s.trans {
			if tr.to.mark != mark {
				tr.to.mark = mark
				stack = append(stack, tr.to)
			}
		}
	}
	if ok {
		// Everything reachable from each visited state was also visited
		// and single-typed, so all of them are proven all-single.
		for _, s := range visited {
			s.allSingle = true
		}
		u.singleOK[node] = 1
	} else {
		u.singleOK[node] = 2
	}
	u.visited, u.stack = visited, stack
	return ok
}

// DFA fully expands and returns the DFA rooted at {node}, ready for
// Equivalent.
func (u *Universe) DFA(node int) *State {
	root := u.Root(node)
	u.walk(root, u.expand)
	return root
}

// StateCount returns the number of distinct states reachable from s
// (the DFA size of one object). s must be fully expanded.
func (u *Universe) StateCount(s *State) int {
	n := 0
	u.walk(s, func(*State) { n++ })
	return n
}

// ClaimStates returns the number of distinct states reachable from s
// (its DFA size, as StateCount) and how many of them no earlier
// ClaimStates call reached. Over a set of objects, the sizes sum to
// the states their DFAs would hold without sharing, and the fresh
// counts sum to the distinct states they share, so the second sum never
// exceeds the first. s must be fully expanded.
func (u *Universe) ClaimStates(s *State) (size, fresh int) {
	u.walk(s, func(t *State) {
		size++
		if !t.claimed {
			t.claimed = true
			fresh++
		}
	})
	return size, fresh
}

// walk visits every state reachable from root depth-first, calling
// visit on each before reading its transitions.
func (u *Universe) walk(root *State, visit func(*State)) {
	mark := u.nextEpoch()
	stack := append(u.stack[:0], root)
	root.mark = mark
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(s)
		for _, tr := range s.trans {
			if tr.to.mark != mark {
				tr.to.mark = mark
				stack = append(stack, tr.to)
			}
		}
	}
	u.stack = stack
}

// nextEpoch starts a traversal: states stamped with the returned value
// have been reached by it.
func (u *Universe) nextEpoch() uint32 {
	u.epoch++
	return u.epoch
}
