// Package fpg builds the field points-to graph (FPG) of §2.2.1 from a
// pre-analysis result.
//
// Nodes are the abstract heap objects discovered by the (allocation-site
// based, context-insensitive) pre-analysis, plus a dummy null node: per
// the paper, if o.f may be null then (o, f, o_null) is an edge, and the
// null node has a self-loop on every field. Edges (o_i, f, o_j) mean
// that o_i.f may point to o_j.
//
// The graph is the input of both the Mahjong heap modeler (package core)
// and the automata layer (package automata): the FPG rooted at an object
// o is read directly as the sequential automaton A_o of Figure 4.
package fpg

import (
	"context"
	"fmt"
	"sort"

	"mahjong/internal/budget"
	"mahjong/internal/failure"
	"mahjong/internal/faultinject"
	"mahjong/internal/lang"
	"mahjong/internal/pta"
	"mahjong/internal/trace"
)

// NullNode is the node ID of the dummy null object.
const NullNode = 0

// NullType is the type ID assigned to the null node ("a special type for
// o_null", §4.1).
const NullType = 0

// Edge is one labeled edge group: all successors of a node under one field.
type Edge struct {
	Field   int   // field ID (index into Graph.Fields)
	Targets []int // sorted node IDs
}

// Graph is the field points-to graph.
type Graph struct {
	// Objs maps node ID → abstract object; Objs[0] is nil (the null node).
	Objs []*pta.Obj
	// TypeOf maps node ID → type ID; TypeOf[0] == NullType.
	TypeOf []int
	// Types maps type ID → class; Types[0] is nil (the null type).
	Types []*lang.Class
	// Fields maps field ID → field.
	Fields []*lang.Field
	// Out maps node ID → edges sorted by field ID. The null node's
	// conceptual self-loops on every field are implicit (see Succ).
	Out [][]Edge

	// Reverse indexes by the IR's dense IDs, each entry + 1 (0: absent).
	nodeOf  []int32 // by Obj.ID: node ID
	typeOf  []int32 // by Class.ID: type ID
	fieldOf []int32 // by Field.ID: field ID
}

// Options configures FPG construction.
type Options struct {
	// OmitNullNode drops null edges entirely (fields that may be null
	// simply lack an out-edge). This is the ablation knob for the
	// null-field handling of Table 1 (row "null") and §3.6.2.
	OmitNullNode bool

	// Meter, when non-nil, charges the shared per-job resource budget
	// for each field points-to fact the builder materializes; exhaustion
	// aborts BuildContext with an error wrapping budget.ErrExhausted.
	Meter *budget.Meter

	// Trace, when enabled, records an "fpg.build" span carrying object/
	// field/fact counters. The zero Ctx disables tracing at no cost.
	Trace trace.Ctx
}

// Build constructs the FPG from a points-to result. The result is
// expected to come from the pre-analysis (context-insensitive,
// allocation-site heap model), but any result works: points-to sets are
// projected context-insensitively.
//
// Build is the uncancellable, unmetered form; it panics on the (only
// injectable) failure paths, mirroring core.Build. Pipeline callers use
// BuildContext.
func Build(r *pta.Result, opts Options) *Graph {
	opts.Meter = nil
	g, err := BuildContext(context.Background(), r, opts) //lint:allow ctxflow Build is the documented context-free compat shim over BuildContext
	if err != nil {
		panic(err)
	}
	return g
}

// BuildContext constructs the FPG like Build, honoring cancellation and
// the resource budget in opts.Meter. A recovered panic in the builder is
// returned as a *failure.InternalError with stage "fpg.build".
func BuildContext(ctx context.Context, r *pta.Result, opts Options) (g *Graph, err error) {
	// Registered before the stage guard so the span closes tagged with
	// the recovered error (see pta.SolveContext for the idiom).
	sp := opts.Trace.Start(faultinject.StageFPG)
	defer func() { sp.Close(err) }()
	defer failure.Recover(faultinject.StageFPG, &err)
	if err := faultinject.Fire(faultinject.StageFPG); err != nil {
		return nil, fmt.Errorf("fpg: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fpg: %w", err)
	}
	g = newGraph()

	// Canonical node order: allocation-site creation order (AllocSite.ID),
	// not heap-model interning order. Interning follows solver processing
	// order, which a warm-seeded incremental solve (pta.SolveIncremental)
	// visits differently than a cold one; pinning node IDs to the program
	// makes the graph — and everything downstream of it, including MOM
	// representative election in package core — a pure function of the
	// analyzed program and its points-to facts.
	objs := append([]*pta.Obj(nil), r.Objs()...)
	sort.Slice(objs, func(i, j int) bool {
		oi, oj := objs[i], objs[j]
		if oi.Rep != nil && oj.Rep != nil && oi.Rep != oj.Rep {
			return oi.Rep.ID < oj.Rep.ID
		}
		return oi.ID < oj.ID
	})
	for _, o := range objs {
		g.addNode(o)
	}

	// Field points-to facts, walked in (object, field) order: each call
	// is one (base, field) pair, so it becomes one edge group of the
	// base's node. The walk stops on budget exhaustion or cancellation,
	// polled every 1024 base objects.
	var buildErr error
	var fieldFacts int64
	var lastBase *pta.Obj
	bases := 0
	r.WalkFieldPointsTo(func(base *pta.Obj, field *lang.Field, targets []*pta.Obj) bool {
		if base != lastBase {
			lastBase = base
			bases++
			if bases&1023 == 0 {
				if err := ctx.Err(); err != nil {
					buildErr = err
					return false
				}
			}
		}
		bn := g.Node(base)
		if bn < 0 {
			return true
		}
		if merr := opts.Meter.AddFacts(int64(len(targets))); merr != nil {
			buildErr = merr
			return false
		}
		fieldFacts += int64(len(targets))
		fid := g.fieldID(field)
		tgts := make([]int, 0, len(targets))
		for _, t := range targets {
			if tn := g.Node(t); tn >= 0 {
				tgts = append(tgts, tn)
			}
		}
		if len(tgts) > 0 {
			sort.Ints(tgts)
			g.Out[bn] = append(g.Out[bn], Edge{Field: fid, Targets: dedupSorted(tgts)})
		}
		return true
	})
	if buildErr != nil {
		return nil, fmt.Errorf("fpg: %w", buildErr)
	}

	// Null-field completion: every instance field of every object that has
	// no recorded target may be null.
	if !opts.OmitNullNode {
		var has []int32 // by field ID: the last node with an edge on it, + 1
		for id := 1; id < len(g.Objs); id++ {
			if id&1023 == 1023 {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("fpg: %w", err)
				}
			}
			for _, e := range g.Out[id] {
				has = markField(has, e.Field, id)
			}
			for _, f := range g.Objs[id].Type.InstanceFields() {
				fid := g.fieldID(f)
				if fid >= len(has) || has[fid] != int32(id+1) {
					has = markField(has, fid, id)
					g.Out[id] = append(g.Out[id], Edge{Field: fid, Targets: []int{NullNode}})
				}
			}
		}
	}

	for id := 1; id < len(g.Objs); id++ {
		es := g.Out[id]
		sort.Slice(es, func(i, j int) bool { return es[i].Field < es[j].Field })
	}
	sp.Add("objects", int64(g.NumObjects()))
	sp.Add("types", int64(g.NumTypes()))
	sp.Add("fields", int64(g.NumFields()))
	sp.Add("field_facts", fieldFacts)
	return g, nil
}

// markField records that node has an edge on field fid.
func markField(has []int32, fid, node int) []int32 {
	for fid >= len(has) {
		has = append(has, 0)
	}
	has[fid] = int32(node + 1)
	return has
}

// newGraph returns a graph holding only the null node.
func newGraph() *Graph {
	return &Graph{
		Objs:   []*pta.Obj{nil},
		TypeOf: []int{NullType},
		Types:  []*lang.Class{nil},
		Out:    [][]Edge{nil},
	}
}

func dedupSorted(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func (g *Graph) addNode(o *pta.Obj) int {
	if id := g.Node(o); id >= 0 {
		return id
	}
	id := len(g.Objs)
	g.Objs = append(g.Objs, o)
	g.TypeOf = append(g.TypeOf, g.typeID(o.Type))
	g.Out = append(g.Out, nil)
	g.nodeOf = setIndex(g.nodeOf, o.ID, id)
	return id
}

func (g *Graph) typeID(c *lang.Class) int {
	if c.ID < len(g.typeOf) {
		if id := int(g.typeOf[c.ID]) - 1; id >= 0 && g.Types[id] == c {
			return id
		}
	}
	id := len(g.Types)
	g.Types = append(g.Types, c)
	g.typeOf = setIndex(g.typeOf, c.ID, id)
	return id
}

func (g *Graph) fieldID(f *lang.Field) int {
	if f.ID < len(g.fieldOf) {
		if id := int(g.fieldOf[f.ID]) - 1; id >= 0 && g.Fields[id] == f {
			return id
		}
	}
	id := len(g.Fields)
	g.Fields = append(g.Fields, f)
	g.fieldOf = setIndex(g.fieldOf, f.ID, id)
	return id
}

// setIndex stores v + 1 at idx[k], growing idx as needed.
func setIndex(idx []int32, k, v int) []int32 {
	for k >= len(idx) {
		idx = append(idx, 0)
	}
	idx[k] = int32(v + 1)
	return idx
}

// NumObjects returns the number of real (non-null) nodes.
func (g *Graph) NumObjects() int { return len(g.Objs) - 1 }

// NumTypes returns the number of distinct object types (excluding null).
func (g *Graph) NumTypes() int { return len(g.Types) - 1 }

// NumFields returns the number of distinct fields appearing in the graph.
func (g *Graph) NumFields() int { return len(g.Fields) }

// Node returns the node ID of an abstract object, or -1.
func (g *Graph) Node(o *pta.Obj) int {
	if o.ID < len(g.nodeOf) {
		if id := int(g.nodeOf[o.ID]) - 1; id >= 0 && g.Objs[id] == o {
			return id
		}
	}
	return -1
}

// Succ returns the successors of node under field, handling the null
// node's implicit self-loop. A nil slice means the transition is absent
// (q_error in the equivalence checker).
func (g *Graph) Succ(node, field int) []int {
	if node == NullNode {
		return nullSelf
	}
	es := g.Out[node]
	i := sort.Search(len(es), func(i int) bool { return es[i].Field >= field })
	if i < len(es) && es[i].Field == field {
		return es[i].Targets
	}
	return nil
}

var nullSelf = []int{NullNode}

// FieldsOf returns the field IDs on which node has outgoing edges,
// ascending. The null node reports none: its self-loops are implicit.
func (g *Graph) FieldsOf(node int) []int {
	es := g.Out[node]
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.Field
	}
	return out
}

// Reachable returns all node IDs reachable from root (inclusive),
// ascending. This is the state set Q of the NFA A_root (Algorithm 2).
func (g *Graph) Reachable(root int) []int {
	seen := make(map[int]bool)
	stack := []int{root}
	seen[root] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Out[n] {
			for _, t := range e.Targets {
				if !seen[t] {
					seen[t] = true
					stack = append(stack, t)
				}
			}
		}
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// NFASize returns |Q| of the NFA rooted at node (the reachable set size),
// the per-object size statistic reported in §6.1.1.
func (g *Graph) NFASize(node int) int { return len(g.Reachable(node)) }

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("FPG{objects: %d, types: %d, fields: %d}", g.NumObjects(), g.NumTypes(), g.NumFields())
}
