package pta

import (
	"slices"
	"sort"

	"mahjong/internal/bitset"
	"mahjong/internal/lang"
)

// CSObjs returns all context-sensitive objects, indexed by their IDs
// (the bit positions of points-to sets).
func (r *Result) CSObjs() []*CSObj { return r.solver.csobjs }

// Objs returns the abstract objects the heap model created during the run.
func (r *Result) Objs() []*Obj { return r.solver.opts.Heap.Objs() }

// NumCSObjs returns the number of context-sensitive objects interned
// during the run.
func (r *Result) NumCSObjs() int { return len(r.solver.csobjs) }

// NumNodes returns the number of pointer nodes in the flow graph.
func (r *Result) NumNodes() int { return len(r.solver.nodes) }

// NumReachableMethods returns context-insensitively distinct reachable methods.
func (r *Result) NumReachableMethods() int { return r.solver.numReached }

// NumCSMethods returns (context, method) pairs analyzed.
func (r *Result) NumCSMethods() int { return len(r.solver.reachList) }

// ReachableMethod reports whether m is reachable under any context.
func (r *Result) ReachableMethod(m *lang.Method) bool {
	return r.solver.ownsMethod(m) && r.solver.reached[m.ID]
}

// VarPointsTo returns the context-insensitive projection of v's
// points-to set: the union over all analyzed contexts, as a set of
// CSObj IDs.
func (r *Result) VarPointsTo(v *lang.Var) *bitset.Set {
	out := bitset.New(0)
	r.solver.forEachVarNode(v, func(id int) { out.Union(&r.solver.nodes[id].pts) })
	return out
}

// VarObjs returns the abstract objects v may point to, deduplicated and
// ordered by object ID.
func (r *Result) VarObjs(v *lang.Var) []*Obj {
	seen := map[*Obj]bool{}
	var out []*Obj
	r.VarPointsTo(v).ForEach(func(i int) bool {
		o := r.solver.csobjs[i].Obj
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ForEachVarObj calls fn for every (variable, abstract object) pair of
// the result: v may point to o under some analyzed context. Unlike
// VarPointsTo/VarObjs it materializes no per-variable sets, so whole-
// program clients (escape, nullness, taint) can sweep all variables
// cheaply. Pairs arrive in no particular order and a pair may repeat
// when a variable points to the same object under several contexts; fn
// must be idempotent.
func (r *Result) ForEachVarObj(fn func(v *lang.Var, o *Obj)) {
	r.solver.forEachVar(func(v *lang.Var, id int) {
		r.solver.nodes[id].pts.ForEach(func(i int) bool {
			fn(v, r.solver.csobjs[i].Obj)
			return true
		})
	})
}

// VarTypes returns the set of types v may point to, sorted by name.
func (r *Result) VarTypes(v *lang.Var) []*lang.Class {
	seen := map[*lang.Class]bool{}
	var out []*lang.Class
	for _, o := range r.VarObjs(v) {
		if !seen[o.Type] {
			seen[o.Type] = true
			out = append(out, o.Type)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FieldPointsTo returns the context-insensitive points-to relation for
// object fields: for each (abstract object, field) pair that has a
// points-to set, fn is called with the union over heap contexts as
// abstract objects. Pairs arrive ordered by object ID, then field ID;
// targets are ordered by object ID and fn may retain them. It drives
// the FPG builder.
func (r *Result) FieldPointsTo(fn func(base *Obj, field *lang.Field, targets []*Obj)) {
	r.WalkFieldPointsTo(func(base *Obj, field *lang.Field, targets []*Obj) bool {
		fn(base, field, append(make([]*Obj, 0, len(targets)), targets...))
		return true
	})
}

// WalkFieldPointsTo is FieldPointsTo without the copying: targets is
// only valid until fn returns, and the walk stops early when fn returns
// false.
func (r *Result) WalkFieldPointsTo(fn func(base *Obj, field *lang.Field, targets []*Obj) bool) {
	s := r.solver
	// Group the CSObjs of each abstract object (counting sort by Obj.ID).
	numObjs := 0
	for _, cs := range s.csobjs {
		if cs.Obj.ID >= numObjs {
			numObjs = cs.Obj.ID + 1
		}
	}
	start := make([]int32, numObjs+1)
	for _, cs := range s.csobjs {
		start[cs.Obj.ID+1]++
	}
	for i := 1; i <= numObjs; i++ {
		start[i] += start[i-1]
	}
	members := make([]int32, len(s.csobjs))
	fill := append([]int32(nil), start[:numObjs]...)
	for id, cs := range s.csobjs {
		members[fill[cs.Obj.ID]] = int32(id)
		fill[cs.Obj.ID]++
	}
	walk := s.newFieldWalk()

	type fieldNode struct {
		f  *lang.Field
		id int
	}
	var fields []fieldNode
	var targets []*Obj
	seen := make([]int32, numObjs) // Obj.ID → stamp of the last fact it joined
	stamp := int32(0)
	for o := 0; o < numObjs; o++ {
		ms := members[start[o]:start[o+1]]
		if len(ms) == 0 {
			continue
		}
		fields = fields[:0]
		for _, m := range ms {
			walk.objFields(int(m), func(_ int, f *lang.Field, id int) {
				fields = append(fields, fieldNode{f, id})
			})
		}
		if len(ms) > 1 {
			slices.SortStableFunc(fields, func(a, b fieldNode) int { return a.f.ID - b.f.ID })
		}
		base := s.csobjs[ms[0]].Obj
		for i := 0; i < len(fields); {
			f := fields[i].f
			stamp++
			targets = targets[:0]
			for ; i < len(fields) && fields[i].f == f; i++ {
				s.nodes[fields[i].id].pts.ForEach(func(b int) bool {
					t := s.csobjs[b].Obj
					if seen[t.ID] != stamp {
						seen[t.ID] = stamp
						targets = append(targets, t)
					}
					return true
				})
			}
			if !slices.IsSortedFunc(targets, cmpObj) {
				slices.SortFunc(targets, cmpObj)
			}
			if !fn(base, f, targets) {
				return
			}
		}
	}
}

func cmpObj(a, b *Obj) int { return a.ID - b.ID }

// CallEdge is one context-insensitive call-graph edge.
type CallEdge struct {
	Site   *lang.Invoke
	Callee *lang.Method
}

// CallGraphEdges returns the context-insensitive call graph as a sorted
// edge list (by call-site ID, then callee ID).
func (r *Result) CallGraphEdges() []CallEdge {
	var out []CallEdge
	for i := range r.solver.sites {
		cs := &r.solver.sites[i]
		for _, m := range cs.callees() {
			out = append(out, CallEdge{Site: cs.inv, Callee: m})
		}
	}
	return out
}

// NumCallGraphEdges counts context-insensitive call-graph edges.
func (r *Result) NumCallGraphEdges() int { return r.solver.numCIEdges }

// CallTargets returns the distinct dispatch targets discovered for a
// call site, sorted by method ID.
func (r *Result) CallTargets(inv *lang.Invoke) []*lang.Method {
	if cs := r.solver.lookupSite(inv); cs != nil {
		return cs.callees()
	}
	return []*lang.Method{}
}

// callees returns the site's call targets sorted by method ID.
func (cs *callSite) callees() []*lang.Method {
	out := make([]*lang.Method, len(cs.targets))
	for i, t := range cs.targets {
		out[i] = t.callee
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ReachableCast is one reachable cast statement together with the types
// that may flow into it (the unfiltered points-to set of its operand,
// unioned over contexts).
type ReachableCast struct {
	Stmt     *lang.Cast
	Incoming []*Obj
}

// ReachableCasts returns every cast statement reached by the analysis
// (deduplicated over contexts), with incoming abstract objects, sorted
// by the order casts were first discovered.
func (r *Result) ReachableCasts() []ReachableCast {
	byStmt := make(map[*lang.Cast]map[*Obj]bool)
	var order []*lang.Cast
	for _, cs := range r.solver.casts {
		set := byStmt[cs.stmt]
		if set == nil {
			set = make(map[*Obj]bool)
			byStmt[cs.stmt] = set
			order = append(order, cs.stmt)
		}
		r.solver.nodes[cs.rhsNode].pts.ForEach(func(i int) bool {
			set[r.solver.csobjs[i].Obj] = true
			return true
		})
	}
	out := make([]ReachableCast, 0, len(order))
	for _, stmt := range order {
		objs := make([]*Obj, 0, len(byStmt[stmt]))
		for o := range byStmt[stmt] {
			objs = append(objs, o)
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
		out = append(out, ReachableCast{Stmt: stmt, Incoming: objs})
	}
	return out
}

// ReachableInvokes returns every virtual call site reached by the
// analysis, sorted by site ID. Static and special calls are excluded:
// they are never poly-calls.
func (r *Result) ReachableInvokes() []*lang.Invoke {
	var out []*lang.Invoke
	for i := range r.solver.sites {
		if cs := &r.solver.sites[i]; len(cs.targets) > 0 && cs.inv.Kind == lang.VirtualCall {
			out = append(out, cs.inv)
		}
	}
	return out
}
