package pta

import (
	"mahjong/internal/lang"
)

// Class-contiguous object renumbering.
//
// CSObj IDs are the bit positions of every points-to set, so their
// layout decides both bitset density and how much a class filter
// (cast/catch edge) costs. The default layout is interning order —
// whatever order the solve happens to discover objects in — which
// scatters same-class objects across the ID space and forces every
// filtered propagation through a class-indexed mask set.
//
// The renumbering pass (PAPERS.md: "Improving bit-vector representation
// of points-to sets using class hierarchy", arXiv:1108.2683) instead
// reserves one contiguous ID block per class, with blocks laid out in
// hierarchy pre-order over the superclass tree. Two invariants follow:
//
//  1. Same-class objects are adjacent, so points-to sets of
//     monomorphic-ish variables occupy few machine words.
//  2. The subtype set of any non-interface, non-array filter class is
//     exactly one ID interval [lo, hi) — its pre-order subtree — so a
//     filtered propagation becomes bitset.IntersectRangeInto over that
//     interval: two partial-word masks, no mask set, no per-object
//     subtype tests. (Interface and array filters keep the classic
//     masks: their implementors are not contiguous under single
//     inheritance.)
//
// Blocks are *reserved*, not eagerly populated: csObj interns lazily
// into the class's next free slot, so the observable object population
// (NumCSObjs, which objects exist) is unchanged — only the IDs differ.
// The ID space admits holes (s.csobjs carries nil for never-interned
// slots), which is safe because points-to bits only ever reference
// interned IDs. Objects with a non-empty heap context — only produced
// by context-sensitive selectors — get dynamic IDs past the reserved
// region ("tail" IDs); any tail object disables the range fast path for
// the rest of the run (masks stay correct regardless), so the common
// context-insensitive configuration keeps pure range filtering.
type renumbering struct {
	// reserved is the total number of reserved ID slots (the tail
	// region starts here).
	reserved int
	// blocks is, by Class.ID, each class's reserved slot range with its
	// allocation cursor; an empty block (class never allocated) sends
	// the object to the tail.
	blocks []classBlock
	// spans holds, by Class.ID, the [lo, hi) ID interval that contains
	// exactly a span-eligible filter class's (non-interface, non-array)
	// subtypes' reserved blocks; numSpans counts the eligible classes.
	spans    []classSpan
	numSpans int
}

type classBlock struct {
	next, hi int // next free slot; block is exhausted when next == hi
}

type classSpan struct {
	lo, hi int
	ok     bool // the class is span-eligible
}

// buildRenumbering lays out the reserved blocks for prog under the
// given heap model. Per-class capacities are the number of distinct
// abstract objects the model can produce for that class — exact for
// the three built-in models, a safe upper bound (sites per class) for
// anything else. A model that somehow overflows its block degrades to
// tail IDs, never to an error.
func buildRenumbering(prog *lang.Program, heap HeapModel) *renumbering {
	caps := classCapacities(prog, heap)

	// Children lists over the superclass tree, in class creation order
	// (deterministic). Interfaces and arrays have Super == Object, so
	// they sit inside Object's subtree and Object's span covers every
	// allocatable class — which matches SubtypeOf: everything (arrays
	// included) is a subtype of Object.
	children := make(map[*lang.Class][]*lang.Class, len(prog.Classes))
	var roots []*lang.Class
	for _, c := range prog.Classes {
		if c.Super == nil {
			roots = append(roots, c)
		} else {
			children[c.Super] = append(children[c.Super], c)
		}
	}

	r := &renumbering{
		blocks: make([]classBlock, len(prog.Classes)),
		spans:  make([]classSpan, len(prog.Classes)),
	}
	cursor := 0
	// Iterative pre-order DFS; the post frame closes a class's subtree
	// span once all descendants have been laid out.
	type frame struct {
		c    *lang.Class
		post bool
	}
	var stack []frame
	for i := len(roots) - 1; i >= 0; i-- {
		stack = append(stack, frame{c: roots[i]})
	}
	lo := make(map[*lang.Class]int, len(prog.Classes))
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.post {
			if !f.c.IsInterface && !f.c.IsArray() {
				r.spans[f.c.ID] = classSpan{lo: lo[f.c], hi: cursor, ok: true}
				r.numSpans++
			}
			continue
		}
		lo[f.c] = cursor
		if n := caps[f.c]; n > 0 {
			r.blocks[f.c.ID] = classBlock{next: cursor, hi: cursor + n}
			cursor += n
		}
		stack = append(stack, frame{c: f.c, post: true})
		kids := children[f.c]
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, frame{c: kids[i]})
		}
	}
	r.reserved = cursor
	return r
}

// classCapacities returns, per class, how many distinct abstract
// objects the heap model can produce for it.
func classCapacities(prog *lang.Program, heap HeapModel) map[*lang.Class]int {
	caps := make(map[*lang.Class]int)
	switch m := heap.(type) {
	case *AllocTypeModel:
		_ = m // one object per allocated type
		for _, site := range prog.Sites {
			if caps[site.Type] == 0 {
				caps[site.Type] = 1
			}
		}
	case *MergedSiteModel:
		// One object per MOM equivalence class; the MOM never merges
		// across types (Obj panics otherwise), so counting distinct
		// representatives per type is exact.
		reps := make(map[*lang.AllocSite]bool, len(prog.Sites))
		for _, site := range prog.Sites {
			rep, ok := m.mom[site]
			if !ok {
				rep = site
			}
			if !reps[rep] {
				reps[rep] = true
				caps[site.Type]++
			}
		}
	default:
		// AllocSiteModel, and the safe upper bound for foreign models:
		// at most one object per allocation site of the class.
		for _, site := range prog.Sites {
			caps[site.Type]++
		}
	}
	return caps
}

// span returns the reserved-ID interval holding exactly filter's
// subtypes, when filter is span-eligible.
func (r *renumbering) span(filter *lang.Class) (classSpan, bool) {
	if filter.ID >= len(r.spans) {
		return classSpan{}, false
	}
	sp := r.spans[filter.ID]
	return sp, sp.ok
}
