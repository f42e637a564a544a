package pta

import (
	"fmt"
	"slices"
	"sort"

	"mahjong/internal/lang"
)

// Dense solver tables.
//
// The IR numbers methods, fields, call sites and abstract objects
// densely (Method.ID, Field.ID, Invoke.ID, Obj.ID; variables by their
// Var.Index within a method), and CSObj and Context IDs are dense by
// construction. Every table on the propagation path is keyed by those
// numbers instead of by hashing pointer structs:
//
//   - variables: a per-solve offset table, varBase[Method.ID] +
//     Var.Index, indexes a flat slot array holding the empty-context
//     node of every variable;
//   - instance fields: a field's slot in its class layout
//     (lang.Class.InstanceFields lists superclass fields first, so the
//     slot is the same in every subclass) indexes a per-CSObj row of
//     field nodes; a field outside the object's layout (an imprecise
//     flow) takes a map on the side;
//   - methods and call sites: reachability is a slice by Method.ID, and
//     a per-Invoke.ID site record carries the receiver-class → callee
//     dispatch cache and the site's context-insensitive call targets;
//   - abstract objects: the empty-heap-context CSObj of every Obj is a
//     slice by Obj.ID.
//
// The empty context is served by the slices. It covers the whole
// pre-analysis and every object the heap model marks context-
// insensitive, which is where the solver spends most of its lookups.
// Non-empty contexts, which are sparse over the (context, ID) product,
// are keyed by one packed integer, packKey(ctx, id), in a map. Variables
// are the exception: each (context, method) pair the solver analyzes
// gets a dense frame row by Var.Index as its csReach entry, so one map
// entry serves all of the method's variables.
//
// The nodes themselves live in the pages of a nodeTable (solver.go),
// which never move. See DESIGN.md §5c.

// packKey packs a context's dense ID and another dense ID into one map
// key for the non-empty-context tables.
func packKey(ctx *Context, id int) uint64 {
	return uint64(uint32(ctx.id))<<32 | uint64(uint32(id))
}

// varTable maps (context, variable) pairs to var nodes.
type varTable struct {
	// base holds, by Method.ID, the method's first slot; base[i+1] -
	// base[i] is its slot count. A concrete method that has no $exc
	// variable yet gets one spare slot: lang.Method.ExcVar creates that
	// variable lazily, possibly mid-solve.
	base []int32
	// empty holds, by slot, the empty-context node id + 1 (0: none).
	empty []int32
	// csHead holds, by slot, the newest non-empty-context node id + 1;
	// older ones chain through varInfo.nextCS. Nil until the first
	// non-empty-context variable.
	csHead []int32
	// chunk is the unused tail of the block that frame rows are cut from.
	chunk []int32
}

// frameChunk is the size of the blocks frame rows are cut from.
const frameChunk = 4096

// newFrame returns an empty frame row for method m: the node id + 1 of
// each of its variables under one non-empty context, by Var.Index (0:
// none). solver.csReach holds the row of each analyzed (context,
// method) pair.
func (t *varTable) newFrame(m *lang.Method) []int32 {
	n := int(t.base[m.ID+1] - t.base[m.ID])
	if n > len(t.chunk) {
		t.chunk = make([]int32, max(n, frameChunk))
	}
	row := t.chunk[:n:n]
	t.chunk = t.chunk[n:]
	return row
}

func newVarTable(prog *lang.Program) varTable {
	base := make([]int32, len(prog.Methods)+1)
	n := 0
	for i, m := range prog.Methods {
		base[i] = int32(n)
		n += len(m.Locals)
		if !m.IsAbstract && !m.HasExcVar() {
			n++
		}
	}
	base[len(prog.Methods)] = int32(n)
	return varTable{base: base, empty: make([]int32, n)}
}

// slot returns v's slot, or -1 when v is not a variable of the solved
// program as it stood when the solve started.
func (t *varTable) slot(prog *lang.Program, v *lang.Var) int {
	m := v.Method
	if m == nil || m.ID >= len(prog.Methods) || prog.Methods[m.ID] != m {
		return -1
	}
	sl := int(t.base[m.ID]) + v.Index
	if sl >= int(t.base[m.ID+1]) {
		return -1
	}
	return sl
}

func (s *solver) varNode(ctx *Context, v *lang.Var) int {
	sl := int(s.vars.base[v.Method.ID]) + v.Index
	if sl >= int(s.vars.base[v.Method.ID+1]) {
		panic(fmt.Sprintf("pta: variable %s has no slot (created after the solve started)", v))
	}
	if ctx == s.emptyHeap {
		if id := s.vars.empty[sl]; id != 0 {
			return int(id - 1)
		}
		id := s.nodes.add(nVar, &varInfo{ctx: ctx, v: v, nextCS: -1})
		s.vars.empty[sl] = int32(id + 1)
		return id
	}
	row, ok := s.csReach[packKey(ctx, v.Method.ID)]
	if !ok {
		panic(fmt.Sprintf("pta: variable %s used under context %s before its method was analyzed there", v, ctx))
	}
	if id := row[v.Index]; id != 0 {
		return int(id - 1)
	}
	if s.vars.csHead == nil {
		s.vars.csHead = make([]int32, len(s.vars.empty))
	}
	id := s.nodes.add(nVar, &varInfo{ctx: ctx, v: v, nextCS: s.vars.csHead[sl] - 1})
	row[v.Index] = int32(id + 1)
	s.vars.csHead[sl] = int32(id + 1)
	return id
}

// lookupVar returns v's node under ctx without creating it.
func (s *solver) lookupVar(ctx *Context, v *lang.Var) (int, bool) {
	sl := s.vars.slot(s.prog, v)
	if sl < 0 {
		return 0, false
	}
	if ctx == s.emptyHeap {
		id := s.vars.empty[sl]
		return int(id - 1), id != 0
	}
	row, ok := s.csReach[packKey(ctx, v.Method.ID)]
	if !ok {
		return 0, false
	}
	id := row[v.Index]
	return int(id - 1), id != 0
}

// forEachVarNode calls fn with every context variant of v's node.
func (s *solver) forEachVarNode(v *lang.Var, fn func(id int)) {
	if sl := s.vars.slot(s.prog, v); sl >= 0 {
		s.forEachSlotNode(sl, fn)
	}
}

func (s *solver) forEachSlotNode(sl int, fn func(id int)) {
	if id := s.vars.empty[sl]; id != 0 {
		fn(int(id - 1))
	}
	if s.vars.csHead == nil {
		return
	}
	for id := s.vars.csHead[sl] - 1; id >= 0; id = s.nodes.at(int(id)).info.nextCS {
		fn(int(id))
	}
}

// forEachVar calls fn with every variable that has a node, and each of
// its nodes, in slot order.
func (s *solver) forEachVar(fn func(v *lang.Var, id int)) {
	for sl := range s.vars.empty {
		s.forEachSlotNode(sl, func(id int) { fn(s.nodes.at(id).info.v, id) })
	}
}

// Instance fields.

// newFieldSlots returns, by Field.ID, every instance field's slot in
// its owner's InstanceFields layout (-1 for static fields).
func newFieldSlots(prog *lang.Program) []int32 {
	slots := make([]int32, len(prog.Fields))
	for i := range slots {
		slots[i] = -1
	}
	for _, c := range prog.Classes {
		k := 0
		if c.Super != nil {
			k = len(c.Super.InstanceFields())
		}
		for _, f := range c.DeclaredFields {
			if !f.IsStatic {
				slots[f.ID] = int32(k)
				k++
			}
		}
	}
	return slots
}

// layoutSlot returns f's slot in the field layout of object obj's type,
// or -1 when f is not one of that type's instance fields.
func (s *solver) layoutSlot(obj int, f *lang.Field) int {
	if f.ID >= len(s.fieldSlot) {
		return -1
	}
	sl := int(s.fieldSlot[f.ID])
	if sl < 0 {
		return -1
	}
	layout := s.csobjs[obj].Obj.Type.InstanceFields()
	if sl < len(layout) && layout[sl] == f {
		return sl
	}
	return -1
}

func (s *solver) fieldNode(obj int, f *lang.Field) int {
	sl := s.layoutSlot(obj, f)
	if sl < 0 {
		return s.oddFieldNode(obj, f)
	}
	for obj >= len(s.objFields) {
		s.objFields = append(s.objFields, nil)
	}
	row := s.objFields[obj]
	if row == nil {
		row = make([]int32, len(s.csobjs[obj].Obj.Type.InstanceFields()))
		s.objFields[obj] = row
	}
	if id := row[sl]; id != 0 {
		return int(id - 1)
	}
	id := s.nodes.add(nInstField, nil)
	row[sl] = int32(id + 1)
	return id
}

// oddFieldNode is fieldNode's slow path for a field outside the
// object's layout.
func (s *solver) oddFieldNode(obj int, f *lang.Field) int {
	k := fieldKey{obj, f}
	if id, ok := s.oddFields[k]; ok {
		return int(id)
	}
	id := s.nodes.add(nInstField, nil)
	s.oddFields[k] = int32(id)
	return id
}

// lookupField returns the node of obj.f without creating it.
func (s *solver) lookupField(obj int, f *lang.Field) (int, bool) {
	if sl := s.layoutSlot(obj, f); sl >= 0 {
		if obj < len(s.objFields) && s.objFields[obj] != nil {
			id := s.objFields[obj][sl]
			return int(id - 1), id != 0
		}
		return 0, false
	}
	id, ok := s.oddFields[fieldKey{obj, f}]
	return int(id), ok
}

// fieldWalk enumerates field nodes in (CSObj, Field.ID) order. It
// keeps its caches to itself rather than in the solver: a finished
// Result is shared (a DeltaState's pre-analysis seeds concurrent
// incremental builds), so a walk must not write to it.
type fieldWalk struct {
	s      *solver
	odd    map[int][]fieldKey // out-of-layout field nodes by CSObj, each ordered by Field.ID
	orders [][]int32          // by Class.ID: layout slots in Field.ID order, built on first use
}

func (s *solver) newFieldWalk() *fieldWalk {
	w := &fieldWalk{s: s}
	if len(s.oddFields) == 0 {
		return w
	}
	odd := make([]fieldKey, 0, len(s.oddFields))
	for k := range s.oddFields {
		odd = append(odd, k)
	}
	slices.SortFunc(odd, func(a, b fieldKey) int {
		if a.obj != b.obj {
			return a.obj - b.obj
		}
		return a.field.ID - b.field.ID
	})
	w.odd = make(map[int][]fieldKey)
	for len(odd) > 0 {
		j := 1
		for j < len(odd) && odd[j].obj == odd[0].obj {
			j++
		}
		w.odd[odd[0].obj] = odd[:j:j]
		odd = odd[j:]
	}
	return w
}

// forEachFieldNode calls fn for every instance-field node, ordered by
// (CSObj ID, Field.ID).
func (s *solver) forEachFieldNode(fn func(obj int, f *lang.Field, id int)) {
	w := s.newFieldWalk()
	for obj := range s.csobjs {
		w.objFields(obj, fn)
	}
}

// layoutOrder returns c's layout slots ordered by Field.ID.
func (w *fieldWalk) layoutOrder(c *lang.Class) []int32 {
	for c.ID >= len(w.orders) {
		w.orders = append(w.orders, nil)
	}
	if ord := w.orders[c.ID]; ord != nil {
		return ord
	}
	layout := c.InstanceFields()
	ord := make([]int32, len(layout))
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.Slice(ord, func(i, j int) bool { return layout[ord[i]].ID < layout[ord[j]].ID })
	w.orders[c.ID] = ord
	return ord
}

// objFields reports obj's field nodes in Field.ID order, merging its
// layout row with its out-of-layout entries.
func (w *fieldWalk) objFields(obj int, fn func(obj int, f *lang.Field, id int)) {
	s := w.s
	odd := w.odd[obj]
	var row []int32
	if obj < len(s.objFields) {
		row = s.objFields[obj]
	}
	var layout []*lang.Field
	var ord []int32
	if row != nil {
		t := s.csobjs[obj].Obj.Type
		layout, ord = t.InstanceFields(), w.layoutOrder(t)
	}
	i := 0
	for i < len(ord) || len(odd) > 0 {
		if i < len(ord) && (len(odd) == 0 || layout[ord[i]].ID < odd[0].field.ID) {
			if id := row[ord[i]]; id != 0 {
				fn(obj, layout[ord[i]], int(id-1))
			}
			i++
			continue
		}
		fn(obj, odd[0].field, int(s.oddFields[odd[0]]))
		odd = odd[1:]
	}
}

// Static fields.

func (s *solver) staticNode(f *lang.Field) int {
	for f.ID >= len(s.staticNodes) {
		s.staticNodes = append(s.staticNodes, 0)
	}
	if id := s.staticNodes[f.ID]; id != 0 {
		return int(id - 1)
	}
	id := s.nodes.add(nStaticField, nil)
	s.staticNodes[f.ID] = int32(id + 1)
	return id
}

// lookupStatic returns f's node without creating it.
func (s *solver) lookupStatic(f *lang.Field) (int, bool) {
	if f.ID >= len(s.staticNodes) || f.ID >= len(s.prog.Fields) || s.prog.Fields[f.ID] != f {
		return 0, false
	}
	id := s.staticNodes[f.ID]
	return int(id - 1), id != 0
}

// Abstract objects.

// csObjID returns the interned CSObj of (ctx, o), or -1.
func (s *solver) csObjID(ctx *Context, o *Obj) int {
	if ctx == s.emptyHeap {
		if o.ID < len(s.emptyObjs) {
			return int(s.emptyObjs[o.ID] - 1)
		}
		return -1
	}
	if id, ok := s.csObjIdx[packKey(ctx, o.ID)]; ok {
		return int(id)
	}
	return -1
}

func (s *solver) recordCSObj(ctx *Context, o *Obj, id int) {
	if ctx != s.emptyHeap {
		s.csObjIdx[packKey(ctx, o.ID)] = int32(id)
		return
	}
	for o.ID >= len(s.emptyObjs) {
		s.emptyObjs = append(s.emptyObjs, 0)
	}
	s.emptyObjs[o.ID] = int32(id + 1)
}

// Reachable methods.

// markReachable records (ctx, m) as analyzed; false when it already was.
func (s *solver) markReachable(ctx *Context, m *lang.Method) bool {
	if m.IsAbstract {
		panic(fmt.Sprintf("pta: abstract method %s became reachable", m))
	}
	if ctx == s.emptyHeap {
		if s.emptyReach[m.ID] {
			return false
		}
		s.emptyReach[m.ID] = true
	} else {
		k := packKey(ctx, m.ID)
		if _, ok := s.csReach[k]; ok {
			return false
		}
		s.csReach[k] = s.vars.newFrame(m)
	}
	s.reachList = append(s.reachList, csMethodKey{ctx, m})
	if !s.reached[m.ID] {
		s.reached[m.ID] = true
		s.numReached++
	}
	return true
}

// ownsMethod reports whether m belongs to the solved program.
func (s *solver) ownsMethod(m *lang.Method) bool {
	return m.ID < len(s.prog.Methods) && s.prog.Methods[m.ID] == m
}

// Call sites.

// callSite is the solver's record of one invoke statement.
type callSite struct {
	inv *lang.Invoke // nil until the site is first touched
	// dispatch caches, per receiver class, the virtual call's dispatch
	// target (nil: no implementation), so lang.Class.Dispatch runs once
	// per (site, class). Solver-local: lang is shared across goroutines.
	dispatch []dispatchEntry
	// targets lists the site's distinct callees (the context-insensitive
	// call graph) in discovery order.
	targets []siteTarget
}

type dispatchEntry struct {
	recv   *lang.Class
	callee *lang.Method
}

type siteTarget struct {
	callee *lang.Method
	id     int32 // dense context-insensitive call-edge ID
	wired  bool  // the empty-context → empty-context edge is wired
}

// csCallKey identifies a call edge with a non-empty caller or callee
// context: the two context IDs and the dense CI edge ID.
type csCallKey struct {
	caller, callee, edge int32
}

// site returns inv's record. The table is sized from the program's
// invoke count when the solve starts.
func (s *solver) site(inv *lang.Invoke) *callSite {
	cs := &s.sites[inv.ID]
	if cs.inv == nil {
		cs.inv = inv
	}
	return cs
}

// lookupSite returns inv's record when the solve touched it.
func (s *solver) lookupSite(inv *lang.Invoke) *callSite {
	if inv.ID < len(s.sites) && s.sites[inv.ID].inv == inv {
		return &s.sites[inv.ID]
	}
	return nil
}

// dispatch resolves a virtual call on a receiver of class recv.
func (s *solver) dispatch(inv *lang.Invoke, recv *lang.Class) *lang.Method {
	cs := s.site(inv)
	for _, d := range cs.dispatch {
		if d.recv == recv {
			return d.callee
		}
	}
	m := recv.Dispatch(inv.Callee.Sig())
	cs.dispatch = append(cs.dispatch, dispatchEntry{recv: recv, callee: m})
	return m
}

// newCallEdge records the call edge (callerCtx, inv) → (calleeCtx,
// callee); false when it already exists.
func (s *solver) newCallEdge(callerCtx *Context, inv *lang.Invoke, calleeCtx *Context, callee *lang.Method) bool {
	cs := s.site(inv)
	ti := -1
	for i := range cs.targets {
		if cs.targets[i].callee == callee {
			ti = i
			break
		}
	}
	if ti < 0 {
		ti = len(cs.targets)
		cs.targets = append(cs.targets, siteTarget{callee: callee, id: int32(s.numCIEdges)})
		s.numCIEdges++
	}
	t := &cs.targets[ti]
	if callerCtx == s.emptyHeap && calleeCtx == s.emptyHeap {
		if t.wired {
			return false
		}
		t.wired = true
		return true
	}
	k := csCallKey{caller: callerCtx.id, callee: calleeCtx.id, edge: t.id}
	if _, ok := s.csCalls[k]; ok {
		return false
	}
	s.csCalls[k] = struct{}{}
	return true
}
