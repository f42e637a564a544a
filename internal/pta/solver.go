package pta

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"mahjong/internal/bitset"
	"mahjong/internal/budget"
	"mahjong/internal/failure"
	"mahjong/internal/faultinject"
	"mahjong/internal/lang"
	"mahjong/internal/trace"
)

// CSObj is a context-sensitive abstract object: an abstract object plus
// the heap context it was allocated under. CSObjs are interned; their
// IDs index points-to bit sets.
type CSObj struct {
	ID  int
	Ctx *Context
	Obj *Obj
}

func (o *CSObj) String() string {
	if o.Ctx.Depth() == 0 {
		return o.Obj.String()
	}
	return o.Ctx.String() + ":" + o.Obj.String()
}

// Budget bounds an analysis run. Work is a deterministic propagation
// counter (points-to facts processed); Time is an optional wall-clock
// cap. A zero field means unlimited.
type Budget struct {
	Work int64
	Time time.Duration
}

// ErrBudget is reported (wrapped) when a run exceeds its Budget.
var ErrBudget = errors.New("pta: budget exhausted")

// Options configures a points-to analysis run.
type Options struct {
	Heap     HeapModel // defaults to NewAllocSiteModel()
	Selector Selector  // defaults to CI{}
	Budget   Budget

	// Meter, when non-nil, charges resource budgets (propagated facts,
	// live bitset words) as the solve runs; exhausting it aborts the run
	// with an error wrapping budget.ErrExhausted. Unlike Budget.Work —
	// which reproduces the paper's "unscalable" cells as a partial
	// result with Aborted=true — meter exhaustion is a hard failure the
	// caller is expected to degrade from. The same meter is shared
	// across pipeline stages so one job draws on one budget.
	Meter *budget.Meter

	// NoOpt disables the solver's class-indexed filter masks and falls
	// back to testing each filtered object's type. Results are
	// identical, only slower; the flag exists for A/B equivalence tests
	// and ablation benchmarks.
	NoOpt bool

	// Trace, when enabled, records a "pta.solve" span for the run
	// carrying the Stats counters as span deltas. The zero Ctx disables
	// tracing at no cost.
	Trace trace.Ctx

	// seed, when non-nil, pre-populates the freshly constructed solver
	// before the worklist runs (the incremental warm start installed by
	// SolveIncrementalContext). Package-private on purpose: a seed is
	// only sound if every fact it installs lies below the program's
	// least fixpoint, an invariant the incremental taint closure
	// guarantees and arbitrary callers cannot.
	seed func(*solver) error
}

// nodeKind discriminates pointer nodes.
type nodeKind int8

const (
	nVar nodeKind = iota
	nInstField
	nStaticField
)

type edge struct {
	to     int
	filter *lang.Class // non-nil for cast edges: only subtypes flow
}

// dupEdgeThreshold is the successor count past which a node switches
// from linear duplicate scanning to a sorted index of its copy targets
// in addEdge.
const dupEdgeThreshold = 8

// node is one pointer in the pointer-flow graph. Nodes are stored by
// value in solver.nodes to avoid a pointer dereference per propagation
// step; take fresh references after any call that may append a node.
type node struct {
	kind nodeKind
	pts  bitset.Set
	succ []edge

	// copyIdx holds, once succ outgrows dupEdgeThreshold, the targets of
	// succ's filter-free edges in ascending order, so a duplicate copy
	// edge is found by binary search; nil below the threshold.
	copyIdx *[]int32

	// info is the var-node payload (nil for field nodes).
	info *varInfo
}

// loadSite / storeSite are load/store statements with their non-base
// endpoints pre-resolved to node ids, so reacting to a points-to delta
// costs no map lookups.
type loadSite struct {
	field *lang.Field
	lhs   int
}

type storeSite struct {
	field *lang.Field
	rhs   int
}

// varInfo carries the statements that must react when the points-to set
// of a variable grows: field accesses via the variable and calls
// dispatched on it.
type varInfo struct {
	ctx     *Context
	v       *lang.Var
	loads   []loadSite
	stores  []storeSite
	invokes []*lang.Invoke
	nextCS  int32 // the variable's next older non-empty-context node; -1 ends the chain
}

// fieldKey keys the out-of-layout instance-field nodes.
type fieldKey struct {
	obj   int // CSObj ID
	field *lang.Field
}

type csMethodKey struct {
	ctx *Context
	m   *lang.Method
}

// castSite records one reachable cast occurrence (per context) for the
// may-fail-casting client.
type castSite struct {
	stmt    *lang.Cast
	rhsNode int
}

// classMask is the class-indexed filter mask of one cast/catch filter
// class: the set of CSObj IDs whose runtime type is a subtype. It is
// extended incrementally as csObj interns new objects, so each object
// pays one SubtypeOf test per distinct filter class instead of one per
// filtered propagation.
type classMask struct {
	set  bitset.Set
	upTo int // CSObj IDs below upTo are indexed
}

// Solver runs the analysis. Create one per run via Solve.
type solver struct {
	prog *lang.Program
	opts Options
	ctxt *ContextTable

	nodes []node

	// Node tables; see layout.go. Node ids are stored + 1 where a zero
	// entry means "no node yet".
	vars        varTable
	fieldSlot   []int32            // by Field.ID: slot in the owner's field layout, -1 if static
	objFields   [][]int32          // by CSObj ID: field node id + 1 per layout slot
	oddFields   map[fieldKey]int32 // field nodes outside the object's layout
	staticNodes []int32            // by Field.ID: static field node id + 1

	csobjs    []*CSObj         // by CSObj ID, which is interning order
	emptyObjs []int32          // by Obj.ID: empty-heap-context CSObj ID + 1
	csObjIdx  map[uint64]int32 // packKey(heap context, Obj.ID) → CSObj ID

	emptyReach []bool              // by Method.ID: analyzed under the empty context
	csReach    map[uint64]struct{} // packKey(ctx, Method.ID) for non-empty contexts
	reached    []bool              // by Method.ID: analyzed under some context
	numReached int
	reachList  []csMethodKey
	sites      []callSite             // by Invoke.ID
	csCalls    map[csCallKey]struct{} // call edges with a non-empty context
	numCIEdges int
	casts      []castSite
	emptyHeap  *Context
	work       int64
	deadline   time.Time
	hasTimeout bool
	ctx        context.Context // nil when cancellation is not requested
	meter      *budget.Meter   // nil when no resource budget is set
	meterErr   error           // the exhaustion error behind errMeterSentinel

	worklist intRing
	queued   []bool
	pending  []*bitset.Set
	freeSets []*bitset.Set // cleared delta sets, reused by grabSet

	masks   []*classMask // by filter Class.ID; nil until the class first filters
	scratch bitset.Set   // filtered() output buffer, consumed immediately

	stats Stats
	span  trace.Span // the run's "pta.solve" span; zero when untraced
}

// Result is the outcome of a points-to analysis run.
type Result struct {
	Prog     *lang.Program
	Opts     Options
	Aborted  bool  // true when the budget ran out (partial result)
	Work     int64 // propagation work performed
	Duration time.Duration

	solver *solver
}

// Solve runs the points-to analysis on prog with the given options.
// A budget overrun returns a partial Result with Aborted=true and a nil
// error; hard misconfigurations return an error.
func Solve(prog *lang.Program, opts Options) (*Result, error) {
	return SolveContext(context.Background(), prog, opts) //lint:allow ctxflow Solve is the documented context-free compat shim over SolveContext
}

// SolveContext is Solve with cancellation: the worklist loop checks ctx
// alongside the Budget, and a cancelled or timed-out context aborts the
// run with an error wrapping context.Canceled or
// context.DeadlineExceeded. Budget overruns keep Solve's semantics
// (partial Result, Aborted=true, nil error).
func SolveContext(ctx context.Context, prog *lang.Program, opts Options) (res *Result, err error) {
	// The span-closing defer is registered before the stage guard so it
	// runs after Recover has converted any panic into the named error:
	// the span closes tagged with the failure the caller will see.
	sp := opts.Trace.Start(faultinject.StageSolve)
	defer func() {
		if err == nil && res != nil && res.Aborted {
			sp.FailTag(trace.FailBudget, "work budget exhausted (partial result)")
			return
		}
		sp.Close(err)
	}()
	// Panic isolation: a bug (or injected fault) escaping the solve
	// surfaces as a typed *failure.InternalError instead of unwinding
	// the caller — in mahjongd, failing one job instead of the daemon.
	// The run loop's budget/cancel sentinels are recovered earlier, in
	// run(); only genuine panics reach this guard.
	defer failure.Recover(faultinject.StageSolve, &err)
	if prog.Entry == nil {
		return nil, errors.New("pta: program has no entry method")
	}
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxflow nil-context normalization at the API boundary, not a detached root
	}
	// The injection seam precedes the deadline check so a hook-injected
	// slow stage is observed by the job's context like any real stall.
	if err := faultinject.Fire(faultinject.StageSolve); err != nil {
		return nil, fmt.Errorf("pta: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("pta: analysis not started: %w", err)
	}
	if opts.Heap == nil {
		opts.Heap = NewAllocSiteModel()
	}
	if opts.Selector == nil {
		opts.Selector = CI{}
	}
	s := &solver{
		prog:       prog,
		opts:       opts,
		ctxt:       NewContextTable(),
		vars:       newVarTable(prog),
		fieldSlot:  newFieldSlots(prog),
		oddFields:  make(map[fieldKey]int32),
		csObjIdx:   make(map[uint64]int32),
		emptyReach: make([]bool, len(prog.Methods)),
		csReach:    make(map[uint64]struct{}),
		reached:    make([]bool, len(prog.Methods)),
		csCalls:    make(map[csCallKey]struct{}),
	}
	s.emptyHeap = s.ctxt.Empty()
	// Size the node tables for one node per program variable, about what
	// a context-insensitive solve creates: each regrowth copies and
	// rescans the pointer-heavy nodes.
	s.nodes = make([]node, 0, len(s.vars.empty))
	s.queued = make([]bool, 0, len(s.vars.empty))
	s.pending = make([]*bitset.Set, 0, len(s.vars.empty))
	s.span = sp
	// Poll the context only when it can actually fire. A nil Done channel
	// means the context can never be cancelled and carries no deadline —
	// context.Background(), or any value-only child of it. The previous
	// identity comparison (ctx != context.Background()) misclassified
	// semantically-background contexts like context.WithValue(Background,…)
	// and panics outright on uncomparable Context implementations.
	if ctx.Done() != nil {
		s.ctx = ctx
	}
	s.meter = opts.Meter
	start := time.Now()
	if opts.Budget.Time > 0 {
		s.deadline = start.Add(opts.Budget.Time)
		s.hasTimeout = true
	}
	if opts.seed != nil {
		// Warm-start seeding: install retained facts below the fixpoint
		// with no worklist entries, so the run converges by constraint
		// replay instead of propagation cascades. Seed errors (resource
		// exhaustion, cancellation) abort before any solving happened.
		if err := opts.seed(s); err != nil {
			return nil, fmt.Errorf("pta: seeding failed: %w", err)
		}
		// The closure captures the base Result; dropping it from both
		// copies of the options lets a chain of incremental solves
		// release each predecessor once its successor exists.
		opts.seed = nil
		s.opts.seed = nil
	}
	aborted, cancelled, exhausted := s.run()
	s.recordSpan(sp)
	if cancelled {
		return nil, fmt.Errorf("pta: analysis interrupted after %d work units: %w", s.work, ctx.Err())
	}
	if exhausted {
		return nil, fmt.Errorf("pta: analysis stopped after %d work units: %w", s.work, s.meterErr)
	}
	return &Result{
		Prog:     prog,
		Opts:     opts,
		Aborted:  aborted,
		Work:     s.work,
		Duration: time.Since(start),
		solver:   s,
	}, nil
}

// recordSpan mirrors the run's Stats onto the solve span so the
// span-accounting tests can cross-check trace counters against
// Result.Stats and Report.Solver. Called on every non-panicking exit
// from run(), including budget/cancel aborts where the partial counters
// are still meaningful.
func (s *solver) recordSpan(sp trace.Span) {
	st := s.stats
	sp.Add("nodes", int64(len(s.nodes)))
	sp.Add("edges", int64(st.Edges))
	sp.Add("copy_edges", int64(st.CopyEdges))
	sp.Add("propagated_bits", st.PropagatedBits)
	sp.Add("filter_masks", int64(st.FilterMasks))
	sp.Add("filter_mask_hits", st.FilterMaskHits)
	sp.Add("worklist_peak", int64(s.worklist.peak))
	sp.Add("work", s.work)
}

// run executes the worklist loop; aborted reports a legacy work-budget
// overrun, cancelled a context cancellation, exhausted a resource-meter
// overrun (the error itself is in s.meterErr).
func (s *solver) run() (aborted, cancelled, exhausted bool) {
	defer func() {
		// chargeWork/chargeWords unwind deep processing chains via panic
		// when a budget runs out or the context is cancelled; anything
		// else is a real bug and is re-raised (to be typed by
		// SolveContext's stage guard).
		switch r := recover(); r {
		case nil:
		case errBudgetSentinel:
			aborted = true
		case errCancelSentinel:
			cancelled = true
		case errMeterSentinel:
			exhausted = true
		default:
			panic(r)
		}
	}()
	s.makeReachable(s.ctxt.Empty(), s.prog.Entry)
	for {
		id, ok := s.worklist.pop()
		if !ok {
			break
		}
		s.queued[id] = false
		delta := s.pending[id]
		s.pending[id] = nil
		if delta == nil || delta.IsEmpty() {
			s.releaseSet(delta)
			continue
		}
		s.chargeWork(int64(delta.Len()))
		s.stats.PropagatedBits += int64(delta.Len())
		// Do not hold a *node across the calls below: processing may
		// append to s.nodes and invalidate interior pointers. Edges
		// appended to succ mid-loop are fine to miss — addEdge replays
		// the full points-to set (delta included) across new edges.
		succ := s.nodes[id].succ
		for _, e := range succ {
			s.addPts(e.to, s.filtered(delta, e.filter))
		}
		if info := s.nodes[id].info; info != nil {
			s.processVarDelta(info, delta)
		}
		s.releaseSet(delta)
	}
	return false, false, false
}

var (
	errBudgetSentinel = new(int)
	errCancelSentinel = new(int)
	errMeterSentinel  = new(int)
)

func (s *solver) chargeWork(units int64) {
	s.work += units
	if s.opts.Budget.Work > 0 && s.work > s.opts.Budget.Work {
		panic(errBudgetSentinel)
	}
	if err := s.meter.AddFacts(units); err != nil {
		s.meterErr = err
		panic(errMeterSentinel)
	}
	if s.work%4096 < units { // periodic checks, amortized over ~4096 units
		if s.hasTimeout && time.Now().After(s.deadline) {
			panic(errBudgetSentinel)
		}
		if s.ctx != nil && s.ctx.Err() != nil {
			panic(errCancelSentinel)
		}
	}
}

// chargeWords meters growth of live points-to-set storage. Like
// chargeWork it unwinds via sentinel, so exhaustion aborts cleanly from
// any depth.
func (s *solver) chargeWords(words int) {
	if s.meter == nil || words == 0 {
		return
	}
	if err := s.meter.AddWords(int64(words)); err != nil {
		s.meterErr = err
		panic(errMeterSentinel)
	}
}

// grabSet returns an empty delta set, reusing a released one if
// available (the steady state allocates nothing).
func (s *solver) grabSet() *bitset.Set {
	if n := len(s.freeSets); n > 0 {
		p := s.freeSets[n-1]
		s.freeSets = s.freeSets[:n-1]
		return p
	}
	return &bitset.Set{}
}

func (s *solver) releaseSet(p *bitset.Set) {
	if p == nil {
		return
	}
	p.Clear()
	s.freeSets = append(s.freeSets, p)
}

// mask returns filter's class-indexed object mask, extending it over
// any CSObjs interned since the last use.
func (s *solver) mask(filter *lang.Class) *bitset.Set {
	for filter.ID >= len(s.masks) {
		s.masks = append(s.masks, nil)
	}
	m := s.masks[filter.ID]
	if m == nil {
		m = &classMask{}
		s.masks[filter.ID] = m
		s.stats.FilterMasks++
	}
	for id := m.upTo; id < len(s.csobjs); id++ {
		if s.csobjs[id].Obj.Type.SubtypeOf(filter) {
			m.set.Add(id)
		}
	}
	m.upTo = len(s.csobjs)
	return &m.set
}

// filtered returns delta restricted to objects whose type is a subtype
// of filter; a nil filter returns delta unchanged. The result may alias
// the solver's scratch buffer and must be consumed before the next
// filtered call.
func (s *solver) filtered(delta *bitset.Set, filter *lang.Class) *bitset.Set {
	if filter == nil {
		return delta //lint:allow bitsetalias documented borrow passthrough: the result aliases an input the caller already borrows and must be consumed before the next filtered call
	}
	if s.opts.NoOpt {
		out := bitset.New(0)
		delta.ForEach(func(i int) bool {
			if s.csobjs[i].Obj.Type.SubtypeOf(filter) {
				out.Add(i)
			}
			return true
		})
		return out
	}
	s.stats.FilterMaskHits++
	return bitset.IntersectInto(&s.scratch, delta, s.mask(filter))
}

func (s *solver) newNode(kind nodeKind, info *varInfo) int {
	id := len(s.nodes)
	s.nodes = append(s.nodes, node{kind: kind, info: info})
	s.queued = append(s.queued, false)
	s.pending = append(s.pending, nil)
	return id
}

// csObj interns the (heap context, object) pair; IDs are handed out in
// interning order.
func (s *solver) csObj(ctx *Context, o *Obj) int {
	if id := s.csObjID(ctx, o); id >= 0 {
		return id
	}
	id := len(s.csobjs)
	s.csobjs = append(s.csobjs, &CSObj{ID: id, Ctx: ctx, Obj: o})
	s.recordCSObj(ctx, o, id)
	return id
}

// addPts merges set into node id's points-to set, queueing the newly
// added part for propagation. set is only read, never retained.
func (s *solver) addPts(id int, set *bitset.Set) {
	if set == nil || set.IsEmpty() {
		return
	}
	p := s.pending[id]
	fresh := p == nil
	if fresh {
		p = s.grabSet()
	}
	wordsBefore := s.nodes[id].pts.Words()
	if s.nodes[id].pts.UnionInto(set, p) == 0 {
		if fresh {
			s.releaseSet(p)
		}
		return
	}
	if fresh {
		s.pending[id] = p
	}
	s.queue(id)
	s.chargeWords(s.nodes[id].pts.Words() - wordsBefore)
}

// addPtsOne adds a single object without building a one-bit set.
func (s *solver) addPtsOne(id, obj int) {
	wordsBefore := s.nodes[id].pts.Words()
	if !s.nodes[id].pts.Add(obj) {
		return
	}
	s.chargeWords(s.nodes[id].pts.Words() - wordsBefore)
	p := s.pending[id]
	if p == nil {
		p = s.grabSet()
		s.pending[id] = p
	}
	p.Add(obj)
	s.queue(id)
}

func (s *solver) queue(id int) {
	if !s.queued[id] {
		s.queued[id] = true
		s.worklist.push(id)
	}
}

// addEdge inserts a flow edge and replays the source's current
// points-to set across it. Duplicate edges are suppressed — by a linear
// scan while the successor list is short, and for filter-free edges by
// binary search in the node's sorted copy-target index once it grows.
func (s *solver) addEdge(from, to int, filter *lang.Class) {
	s.addEdgeIf(from, to, filter, true)
}

// addEdgeIf is addEdge with the replay made optional. The warm seeder
// passes replay=false for edges whose target's set was installed from
// the base fixpoint and already contains everything the source would
// push — skipping those full-set unions is most of the seeding win.
func (s *solver) addEdgeIf(from, to int, filter *lang.Class, replay bool) {
	if from == to && filter == nil {
		return
	}
	n := &s.nodes[from]
	e := edge{to: to, filter: filter}
	if filter == nil && n.copyIdx != nil {
		idx := *n.copyIdx
		i, dup := slices.BinarySearch(idx, int32(to))
		if dup {
			return
		}
		*n.copyIdx = slices.Insert(idx, i, int32(to))
	} else {
		if slices.Contains(n.succ, e) {
			return
		}
		if filter == nil && len(n.succ) >= dupEdgeThreshold {
			n.copyIdx = newCopyIdx(n.succ, to)
		}
	}
	n.succ = append(n.succ, e)
	s.stats.Edges++
	if filter == nil {
		s.stats.CopyEdges++
	}
	if replay && !n.pts.IsEmpty() {
		s.addPts(to, s.filtered(&n.pts, filter))
	}
}

// newCopyIdx builds a copy-target index over succ's filter-free edges
// plus one more target.
func newCopyIdx(succ []edge, to int) *[]int32 {
	idx := make([]int32, 0, len(succ)+1)
	for _, e := range succ {
		if e.filter == nil {
			idx = append(idx, int32(e.to))
		}
	}
	idx = append(idx, int32(to))
	slices.Sort(idx)
	return &idx
}

// makeReachable marks (ctx, m) reachable and processes its body once.
func (s *solver) makeReachable(ctx *Context, m *lang.Method) {
	if !s.markReachable(ctx, m) {
		return
	}
	s.chargeWork(1)
	for _, st := range m.Stmts {
		s.processStmt(ctx, m, st)
	}
}

func (s *solver) processStmt(ctx *Context, m *lang.Method, st lang.Stmt) {
	switch stmt := st.(type) {
	case *lang.Alloc:
		obj := s.opts.Heap.Obj(stmt.Site)
		var hctx *Context
		if obj.CtxInsensitive {
			hctx = s.emptyHeap
		} else {
			hctx = s.opts.Selector.HeapContext(s.ctxt, ctx, obj)
		}
		cs := s.csObj(hctx, obj)
		s.addPtsOne(s.varNode(ctx, stmt.LHS), cs)

	case *lang.Copy:
		s.addEdge(s.varNode(ctx, stmt.RHS), s.varNode(ctx, stmt.LHS), nil)

	case *lang.Cast:
		rhs := s.varNode(ctx, stmt.RHS)
		s.addEdge(rhs, s.varNode(ctx, stmt.LHS), stmt.Type)
		s.casts = append(s.casts, castSite{stmt: stmt, rhsNode: rhs})

	case *lang.Load:
		base := s.varNode(ctx, stmt.Base)
		ls := loadSite{field: stmt.Field, lhs: s.varNode(ctx, stmt.LHS)}
		info := s.nodes[base].info
		info.loads = append(info.loads, ls)
		s.replayBase(base, func(obj int) { s.applyLoad(obj, ls) })

	case *lang.Store:
		base := s.varNode(ctx, stmt.Base)
		ss := storeSite{field: stmt.Field, rhs: s.varNode(ctx, stmt.RHS)}
		info := s.nodes[base].info
		info.stores = append(info.stores, ss)
		s.replayBase(base, func(obj int) { s.applyStore(obj, ss) })

	case *lang.StaticLoad:
		s.addEdge(s.staticNode(stmt.Field), s.varNode(ctx, stmt.LHS), nil)

	case *lang.StaticStore:
		s.addEdge(s.varNode(ctx, stmt.RHS), s.staticNode(stmt.Field), nil)

	case *lang.Invoke:
		switch stmt.Kind {
		case lang.StaticCall:
			calleeCtx := s.opts.Selector.CalleeContext(s.ctxt, ctx, stmt, stmt.Callee, nil)
			s.addCallEdge(ctx, stmt, calleeCtx, stmt.Callee, -1)
		default: // virtual and special calls dispatch/bind per receiver object
			base := s.varNode(ctx, stmt.Base)
			info := s.nodes[base].info
			info.invokes = append(info.invokes, stmt)
			s.replayBase(base, func(obj int) { s.applyInvoke(ctx, obj, stmt) })
		}

	case *lang.Return:
		if stmt.Value != nil && m.RetVar != nil {
			s.addEdge(s.varNode(ctx, stmt.Value), s.varNode(ctx, m.RetVar), nil)
		}

	case *lang.Throw:
		s.addEdge(s.varNode(ctx, stmt.Value), s.varNode(ctx, m.ExcVar()), nil)

	case *lang.Catch:
		s.addEdge(s.varNode(ctx, m.ExcVar()), s.varNode(ctx, stmt.LHS), stmt.Type)

	default:
		panic(fmt.Sprintf("pta: unknown statement %T", st))
	}
}

// replayBase applies fn to every object already in base's points-to
// set; future objects are handled by processVarDelta. It iterates a
// snapshot: callbacks may grow the live set through addPts (e.g. the
// self-load `x = x.f`), and bits added mid-replay reach fn later via
// the pending delta instead of a mutating iteration.
func (s *solver) replayBase(base int, fn func(obj int)) {
	pts := &s.nodes[base].pts
	if pts.IsEmpty() {
		return
	}
	snap := pts.Clone()
	snap.ForEach(func(i int) bool {
		fn(i)
		return true
	})
}

// processVarDelta reacts to growth of a variable's points-to set.
func (s *solver) processVarDelta(info *varInfo, delta *bitset.Set) {
	ctx := info.ctx
	delta.ForEach(func(obj int) bool {
		for _, ld := range info.loads {
			s.applyLoad(obj, ld)
		}
		for _, st := range info.stores {
			s.applyStore(obj, st)
		}
		for _, inv := range info.invokes {
			s.applyInvoke(ctx, obj, inv)
		}
		return true
	})
}

func (s *solver) applyLoad(obj int, ld loadSite) {
	s.addEdge(s.fieldNode(obj, ld.field), ld.lhs, nil)
}

func (s *solver) applyStore(obj int, st storeSite) {
	s.addEdge(st.rhs, s.fieldNode(obj, st.field), nil)
}

// applyInvoke dispatches inv on receiver object obj and wires the call
// edge. There is deliberately no (ctx, inv, obj) seen-cache in front of
// it: deltas are disjoint from previously propagated bits, so a pair
// can repeat only through a statement replay overlapping a pending
// delta — which is bounded — and
// addCallEdge deduplicates the edge itself. The former cache's hashing
// and rehash churn dominated the solver's profile.
func (s *solver) applyInvoke(ctx *Context, obj int, inv *lang.Invoke) {
	recv := s.csobjs[obj]
	var callee *lang.Method
	if inv.Kind == lang.SpecialCall {
		callee = inv.Callee
	} else {
		callee = s.dispatch(inv, recv.Obj.Type)
		if callee == nil {
			// No implementation for this runtime type (e.g. an object of an
			// unrelated type flowed here imprecisely); skip, as a JVM would
			// never reach this state.
			return
		}
	}
	calleeCtx := s.opts.Selector.CalleeContext(s.ctxt, ctx, inv, callee, recv)
	s.addCallEdge(ctx, inv, calleeCtx, callee, obj)
}

// addCallEdge links a (caller, call-site) to a (calleeCtx, callee):
// binds the receiver, wires argument/return edges once per edge, and
// makes the callee reachable.
func (s *solver) addCallEdge(callerCtx *Context, inv *lang.Invoke, calleeCtx *Context, callee *lang.Method, recvObj int) {
	s.makeReachable(calleeCtx, callee)
	if recvObj >= 0 && callee.This != nil {
		s.addPtsOne(s.varNode(calleeCtx, callee.This), recvObj)
	}
	if !s.newCallEdge(callerCtx, inv, calleeCtx, callee) {
		return
	}
	for i, a := range inv.Args {
		s.addEdge(s.varNode(callerCtx, a), s.varNode(calleeCtx, callee.Params[i]), nil)
	}
	if inv.LHS != nil && callee.RetVar != nil {
		s.addEdge(s.varNode(calleeCtx, callee.RetVar), s.varNode(callerCtx, inv.LHS), nil)
	}
	// Exceptions escaping the callee may escape the caller too. The edge
	// is added unconditionally: the callee's $exc may only be populated
	// later (e.g. by a throw in one of its own callees), and an edge
	// over still-empty sets costs nothing.
	s.addEdge(s.varNode(calleeCtx, callee.ExcVar()), s.varNode(callerCtx, inv.In.ExcVar()), nil)
}
