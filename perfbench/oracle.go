package main

// The Definition 2.1 oracle. It re-derives type-consistency directly
// from the pre-analysis points-to facts and shares no code with the
// program's FPG, automata or heap-modeler packages, so a bug there
// cannot hide itself by agreeing with its own check.
//
// Two objects are type-consistent when, along every field path, the
// object sets reached from each have the same type set and that set is
// a singleton. The heap is read as the paper's field points-to graph:
// o.f points to the objects the pre-analysis found for o.f, and an
// instance field with no recorded target points to the null object,
// which has a type of its own and no outgoing fields. The product of
// the two subset walks is explored breadth-first; a pair fails as soon
// as a reached pair of sets is not one shared singleton type or offers
// different fields.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"mahjong/internal/lang"
	"mahjong/internal/pta"
)

// oracleReport summarizes one oracle pass over a MOM.
type oracleReport struct {
	// MergedPairs counts the (site, representative) pairs checked to be
	// type-consistent; SampledPairs the unmerged same-type
	// representative pairs checked not to be.
	MergedPairs, SampledPairs int
	// Violations describes every failed check.
	Violations []string
}

// heapView is the field points-to relation of a pre-analysis result.
// Node 0 is the null object; node i >= 1 is the pre-analysis object
// pre.Objs()[i-1].
type heapView struct {
	typ    []*lang.Class // nil for the null node
	fields [][]int       // sorted field IDs with a successor set
	succ   []map[int][]int
	nodeOf map[*lang.AllocSite]int

	states []dstate
	byKey  map[string]int
	// good holds state pairs whose whole reachable product is known to
	// be consistent (from an earlier successful walk).
	good map[[2]int]bool
}

// dstate is one reached set of nodes (a subset-construction state).
type dstate struct {
	nodes  []int
	single bool        // every node has the same type
	typ    *lang.Class // that type, when single
	fields []int
	next   map[int]int // field ID → state, filled on demand
}

func newHeapView(pre *pta.Result) *heapView {
	objs := pre.Objs()
	n := len(objs) + 1
	v := &heapView{
		typ:    make([]*lang.Class, n),
		fields: make([][]int, n),
		succ:   make([]map[int][]int, n),
		nodeOf: make(map[*lang.AllocSite]int),
		byKey:  make(map[string]int),
		good:   make(map[[2]int]bool),
	}
	nodeOfObj := make(map[*pta.Obj]int, len(objs))
	for i, o := range objs {
		id := i + 1
		nodeOfObj[o] = id
		v.typ[id] = o.Type
		v.succ[id] = map[int][]int{}
		for _, s := range o.Sites {
			v.nodeOf[s] = id
		}
	}
	v.succ[0] = map[int][]int{}
	pre.FieldPointsTo(func(base *pta.Obj, f *lang.Field, targets []*pta.Obj) {
		b, ok := nodeOfObj[base]
		if !ok {
			return
		}
		for _, t := range targets {
			if tn, ok := nodeOfObj[t]; ok {
				v.succ[b][f.ID] = append(v.succ[b][f.ID], tn)
			}
		}
	})
	for id := 1; id < n; id++ {
		for _, f := range v.typ[id].InstanceFields() {
			if len(v.succ[id][f.ID]) == 0 {
				v.succ[id][f.ID] = []int{0}
			}
		}
		for f, ts := range v.succ[id] {
			if len(ts) == 0 {
				delete(v.succ[id], f)
				continue
			}
			v.succ[id][f] = sortedUnique(ts)
			v.fields[id] = append(v.fields[id], f)
		}
		sort.Ints(v.fields[id])
	}
	return v
}

func sortedUnique(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// state interns the sorted node set nodes.
func (v *heapView) state(nodes []int) int {
	buf := make([]byte, 0, 4*len(nodes))
	for _, n := range nodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	}
	if id, ok := v.byKey[string(buf)]; ok {
		return id
	}
	s := dstate{nodes: nodes, single: true, typ: v.typ[nodes[0]], next: map[int]int{}}
	fieldSet := map[int]bool{}
	for _, n := range nodes {
		if v.typ[n] != s.typ {
			s.single = false
		}
		for _, f := range v.fields[n] {
			fieldSet[f] = true
		}
	}
	for f := range fieldSet {
		s.fields = append(s.fields, f)
	}
	sort.Ints(s.fields)
	v.states = append(v.states, s)
	v.byKey[string(buf)] = len(v.states) - 1
	return len(v.states) - 1
}

// step returns the state reached from state id along field f.
func (v *heapView) step(id, f int) int {
	if to, ok := v.states[id].next[f]; ok {
		return to
	}
	var out []int
	for _, n := range v.states[id].nodes {
		out = append(out, v.succ[n][f]...)
	}
	to := v.state(sortedUnique(out))
	v.states[id].next[f] = to
	return to
}

// consistent reports whether nodes a and b are type-consistent.
func (v *heapView) consistent(a, b int) bool {
	start := [2]int{v.state([]int{a}), v.state([]int{b})}
	seen := map[[2]int]bool{start: true}
	queue := [][2]int{start}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if v.good[p] {
			continue
		}
		sa, sb := v.states[p[0]], v.states[p[1]]
		if !sa.single || !sb.single || sa.typ != sb.typ || !equalInts(sa.fields, sb.fields) {
			return false
		}
		for _, f := range sa.fields {
			q := [2]int{v.step(p[0], f), v.step(p[1], f)}
			if !seen[q] {
				seen[q] = true
				queue = append(queue, q)
			}
		}
	}
	for p := range seen {
		v.good[p] = true
	}
	return true
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

// checkMOM runs the oracle over mom, which must belong to the program
// pre analyzed: every merged pair must be type-consistent, and a seeded
// sample of up to samples pairs of distinct same-type representatives
// must not be.
func checkMOM(pre *pta.Result, mom map[*lang.AllocSite]*lang.AllocSite, seed int64, samples int) oracleReport {
	v := newHeapView(pre)
	var rep oracleReport
	fail := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	merged := make([]*lang.AllocSite, 0, len(mom))
	for site, r := range mom {
		if site != r {
			merged = append(merged, site)
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].ID < merged[j].ID })
	for _, site := range merged {
		r := mom[site]
		rep.MergedPairs++
		a, okA := v.nodeOf[site]
		b, okB := v.nodeOf[r]
		switch {
		case !okA || !okB:
			fail("merged %s -> %s: site not in the pre-analysis heap", site.Label, r.Label)
		case mom[r] != nil && mom[r] != r:
			fail("merged %s -> %s: representative maps to %s", site.Label, r.Label, mom[r].Label)
		case !v.consistent(a, b):
			fail("merged %s -> %s: not type-consistent (Definition 2.1)", site.Label, r.Label)
		}
	}

	// Representatives of distinct classes, grouped by type.
	byType := map[*lang.Class][]*lang.AllocSite{}
	for site := range v.nodeOf {
		if r, ok := mom[site]; !ok || r == site {
			byType[site.Type] = append(byType[site.Type], site)
		}
	}
	var types []*lang.Class
	for t, reps := range byType {
		if len(reps) >= 2 {
			sort.Slice(reps, func(i, j int) bool { return reps[i].ID < reps[j].ID })
			types = append(types, t)
		}
	}
	sort.Slice(types, func(i, j int) bool { return types[i].Name < types[j].Name })
	if len(types) == 0 {
		return rep
	}
	rng := rand.New(rand.NewSource(seed))
	tried := map[[2]*lang.AllocSite]bool{}
	for attempt := 0; attempt < 4*samples && rep.SampledPairs < samples; attempt++ {
		reps := byType[types[rng.Intn(len(types))]]
		i, j := rng.Intn(len(reps)), rng.Intn(len(reps)-1)
		if j >= i {
			j++
		}
		key := [2]*lang.AllocSite{reps[i], reps[j]}
		if tried[key] {
			continue
		}
		tried[key] = true
		rep.SampledPairs++
		if v.consistent(v.nodeOf[reps[i]], v.nodeOf[reps[j]]) {
			fail("unmerged %s and %s are type-consistent (Definition 2.1) but were not merged", reps[i].Label, reps[j].Label)
		}
	}
	return rep
}
