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
// counter (points-to facts processed); zero means unlimited. Wall time
// is bounded by the caller's context.
type Budget struct {
	Work int64
}

// ErrBudget is reported (wrapped) when a run exceeds its Budget.
var ErrBudget = errors.New("pta: budget exhausted")

// Options configures a points-to analysis run.
type Options struct {
	Heap     HeapModel // defaults to NewAllocSiteModel()
	Selector Selector  // defaults to CI{}
	Budget   Budget

	// Meter, when non-nil, charges resource budgets (propagated facts,
	// points-to words grown) as the solve runs; exhausting it aborts the run
	// with an error wrapping budget.ErrExhausted. Unlike Budget.Work —
	// which reproduces the paper's "unscalable" cells as a partial
	// result with Aborted=true — meter exhaustion is a hard failure the
	// caller is expected to degrade from. The same meter is shared
	// across pipeline stages so one job draws on one budget.
	Meter *budget.Meter

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

// edge is one flow edge: a copy, cast, catch, load, static-field or
// call-wiring flow. A store is not an edge (see fieldSite). It holds no
// pointers, so successor lists are memory the garbage collector does
// not scan.
type edge struct {
	to int32
	// filter is 0 for copy edges; a cast or catch edge holds its filter
	// class's ID + 1 (resolved through prog.Classes), and only objects of
	// a subtype flow across it.
	filter int32
}

// classFilter returns the edge filter of class c (nil: no filter).
func classFilter(c *lang.Class) int32 {
	if c == nil {
		return 0
	}
	return int32(c.ID + 1)
}

// dupEdgeThreshold is the successor count past which a node switches
// from linear duplicate scanning to a sorted index of its copy targets
// in addEdge.
const dupEdgeThreshold = 8

// node is one pointer in the pointer-flow graph. Nodes live by value in
// the pages of solver.nodes, which never move, so a *node stays valid
// while the solver creates more nodes. A node's copy-target index lives
// in a side table by node ID (solver.copyIdxOf).
type node struct {
	kind nodeKind
	pts  bitset.Set
	succ []edge

	// info is the var-node payload (nil for field nodes). It stays in the
	// node: as a side table by node ID it made mahjongd's warmed-cache
	// jobs, which pop a node and read its payload together, measurably
	// slower (DESIGN.md §5c).
	info *varInfo

	// pending is the part of pts not yet propagated. A node is on the
	// worklist exactly when pending is non-nil.
	pending *bitset.Set
}

// nodePageShift sets the node table's page size: 1024 nodes, 80 KB.
const (
	nodePageShift = 10
	nodePageSize  = 1 << nodePageShift
)

type nodePage [nodePageSize]node

// nodeTable holds the solver's nodes by ID in fixed-size pages. Growth
// appends a page and never copies a node.
type nodeTable struct {
	pages []*nodePage
	n     int
}

func (t *nodeTable) len() int { return t.n }

// at returns node id; the pointer stays valid for the table's lifetime.
func (t *nodeTable) at(id int) *node {
	return &t.pages[id>>nodePageShift][id&(nodePageSize-1)]
}

// add appends a node and returns its ID.
func (t *nodeTable) add(kind nodeKind, info *varInfo) int {
	id := t.n
	if id&(nodePageSize-1) == 0 {
		t.pages = append(t.pages, new(nodePage))
	}
	n := t.at(id)
	n.kind, n.info = kind, info
	t.n++
	return id
}

// siteKind tags a fieldSite.
type siteKind uint8

const (
	// siteLoad is a load lhs = v.f: node is lhs, and each object o of v
	// gets the edge o.f → lhs.
	siteLoad siteKind = iota
	// siteStore is a store v.f = rhs seen from its base: node is rhs, and
	// each object o of v gets rhs's whole set in o.f.
	siteStore
	// siteStoreOut is the same store seen from its right-hand side (v is
	// rhs): node is the base, and each delta of v flows into o.f for
	// every object o of the base. No flow edge stands for it.
	siteStoreOut
)

// fieldSite is one load or store registered on a variable node, with
// its other variable pre-resolved to a node id, so reacting to a
// points-to delta costs no map lookups.
type fieldSite struct {
	field *lang.Field
	node  int32
	kind  siteKind
}

// varInfo carries the statements that must react when the points-to set
// of a variable grows: field accesses through the variable, stores of
// the variable, and calls dispatched on it. One tagged slice holds the
// field sites so the struct stays in the 80-byte size class: one is
// allocated per var node.
type varInfo struct {
	ctx     *Context
	v       *lang.Var
	sites   []fieldSite
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

	nodes nodeTable
	// copyIdxOf holds, by node ID, 1 + the position in copyIdxs of the
	// node's copy-target index (0: none; entries past its length are 0).
	// A node gets an index once its successor list outgrows
	// dupEdgeThreshold: the targets of its filter-free edges in ascending
	// order, so a duplicate copy edge is found by binary search.
	copyIdxOf []int32
	copyIdxs  [][]int32

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

	emptyReach []bool             // by Method.ID: analyzed under the empty context
	csReach    map[uint64][]int32 // packKey(ctx, Method.ID) → the pair's frame row (see varTable.newFrame), for non-empty contexts
	reached    []bool             // by Method.ID: analyzed under some context
	numReached int
	reachList  []csMethodKey
	sites      []callSite             // by Invoke.ID
	csCalls    map[csCallKey]struct{} // call edges with a non-empty context
	numCIEdges int
	casts      []castSite
	emptyHeap  *Context
	work       int64
	ctx        context.Context // nil when cancellation is not requested
	meter      *budget.Meter   // nil when no resource budget is set
	meterErr   error           // the exhaustion error behind errMeterSentinel

	worklist intRing
	freeSets []*bitset.Set // cleared delta sets, reused by grabSet

	masks   []*classMask // by filter class ID; nil until the class first filters
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
	s := newSolver(prog, opts)
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

// newSolver returns a solver for prog with empty tables; opts must have
// its Heap and Selector set.
func newSolver(prog *lang.Program, opts Options) *solver {
	s := &solver{
		prog:       prog,
		opts:       opts,
		ctxt:       NewContextTable(),
		vars:       newVarTable(prog),
		fieldSlot:  newFieldSlots(prog),
		oddFields:  make(map[fieldKey]int32),
		csObjIdx:   make(map[uint64]int32),
		emptyReach: make([]bool, len(prog.Methods)),
		csReach:    make(map[uint64][]int32),
		reached:    make([]bool, len(prog.Methods)),
		csCalls:    make(map[csCallKey]struct{}),
		sites:      make([]callSite, prog.NumInvokes()),
	}
	s.emptyHeap = s.ctxt.Empty()
	return s
}

// recordSpan mirrors the run's Stats onto the solve span so the
// span-accounting tests can cross-check trace counters against
// Result.Stats and Report.Solver. Called on every non-panicking exit
// from run(), including budget/cancel aborts where the partial counters
// are still meaningful.
func (s *solver) recordSpan(sp trace.Span) {
	st := s.stats
	sp.Add("nodes", int64(s.nodes.len()))
	sp.Add("edges", int64(st.Edges))
	sp.Add("copy_edges", int64(st.CopyEdges))
	sp.Add("propagated_bits", st.PropagatedBits)
	sp.Add("filter_masks", int64(st.FilterMasks))
	sp.Add("filter_mask_hits", st.FilterMaskHits)
	sp.Add("worklist_peak", int64(s.worklist.peak))
	sp.Add("work", s.work)
}

// run executes the worklist loop and then drops the propagation
// scratch; aborted reports a legacy work-budget overrun, cancelled a
// context cancellation, exhausted a resource-meter overrun (the error
// itself is in s.meterErr).
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
		s.dropScratch()
	}()
	s.makeReachable(s.ctxt.Empty(), s.prog.Entry)
	for {
		id, ok := s.worklist.pop()
		if !ok {
			break
		}
		s.propagate(s.nodes.at(id))
	}
	return false, false, false
}

// propagate pushes a popped node's pending delta along its edges and
// through its variable's sites. Edges appended to succ mid-loop are fine
// to miss: addEdge replays the full points-to set (delta included)
// across new edges, as applyStore does into the field nodes of a new
// store site.
func (s *solver) propagate(n *node) {
	delta := n.pending
	n.pending = nil
	s.chargeWork(int64(delta.Len()))
	s.stats.PropagatedBits += int64(delta.Len())
	for _, e := range n.succ {
		s.addPts(int(e.to), s.filtered(delta, e.filter))
	}
	if n.info != nil {
		s.processVarDelta(n.info, delta)
	}
	s.releaseSet(delta)
}

// dropScratch releases what only propagation needs. A finished solver
// only answers queries and seeds warm starts, which read its graph and
// sets; dropping the scratch shrinks every Result a cache or job store
// keeps. An aborted run leaves nodes on the worklist, and their
// undrained deltas go with it.
func (s *solver) dropScratch() {
	for {
		id, ok := s.worklist.pop()
		if !ok {
			break
		}
		s.nodes.at(id).pending = nil
	}
	s.worklist.buf = nil
	s.freeSets = nil
	s.copyIdxOf, s.copyIdxs = nil, nil
	s.scratch = bitset.Set{}
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
		if s.ctx != nil && s.ctx.Err() != nil {
			panic(errCancelSentinel)
		}
	}
}

// chargeWords meters growth of points-to-set storage. Like
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

// mask returns the class-indexed object mask of edge filter f (> 0),
// extending it over any CSObjs interned since the last use.
func (s *solver) mask(f int32) *bitset.Set {
	ci := int(f - 1)
	for ci >= len(s.masks) {
		s.masks = append(s.masks, nil)
	}
	m := s.masks[ci]
	if m == nil {
		m = &classMask{}
		s.masks[ci] = m
		s.stats.FilterMasks++
	}
	filter := s.prog.Classes[ci]
	for id := m.upTo; id < len(s.csobjs); id++ {
		if s.csobjs[id].Obj.Type.SubtypeOf(filter) {
			m.set.Add(id)
		}
	}
	m.upTo = len(s.csobjs)
	return &m.set
}

// filtered returns delta restricted to objects whose type is a subtype
// of edge filter f's class; f == 0 returns delta unchanged. The result
// may alias the solver's scratch buffer and must be consumed before the
// next filtered call.
func (s *solver) filtered(delta *bitset.Set, f int32) *bitset.Set {
	if f == 0 {
		return delta //lint:allow bitsetalias documented borrow passthrough: the result aliases an input the caller already borrows and must be consumed before the next filtered call
	}
	s.stats.FilterMaskHits++
	return bitset.IntersectInto(&s.scratch, delta, s.mask(f))
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
	n := s.nodes.at(id)
	p := n.pending
	fresh := p == nil
	if fresh {
		p = s.grabSet()
	}
	wordsBefore := n.pts.Words()
	if n.pts.UnionInto(set, p) == 0 {
		if fresh {
			s.releaseSet(p)
		}
		return
	}
	if fresh {
		n.pending = p
		s.worklist.push(id)
	}
	s.chargeWords(n.pts.Words() - wordsBefore)
}

// addPtsOne adds a single object without building a one-bit set.
func (s *solver) addPtsOne(id, obj int) {
	n := s.nodes.at(id)
	wordsBefore := n.pts.Words()
	if !n.pts.Add(obj) {
		return
	}
	s.chargeWords(n.pts.Words() - wordsBefore)
	if n.pending == nil {
		n.pending = s.grabSet()
		s.worklist.push(id)
	}
	n.pending.Add(obj)
}

// addEdge inserts a flow edge and replays the source's current
// points-to set across it. Duplicate edges are suppressed — by a linear
// scan while the successor list is short, and for filter-free edges by
// binary search in the node's sorted copy-target index once it grows.
func (s *solver) addEdge(from, to int, filter int32) {
	s.addEdgeIf(from, to, filter, true)
}

// addEdgeIf is addEdge with the replay made optional. The warm seeder
// passes replay=false for edges whose target's set was installed from
// the base fixpoint and already contains everything the source would
// push — skipping those full-set unions is most of the seeding win.
func (s *solver) addEdgeIf(from, to int, filter int32, replay bool) {
	if from == to && filter == 0 {
		return
	}
	n := s.nodes.at(from)
	e := edge{to: int32(to), filter: filter}
	if k := s.copyIdxSlot(from); filter == 0 && k >= 0 {
		idx := s.copyIdxs[k]
		i, dup := slices.BinarySearch(idx, e.to)
		if dup {
			return
		}
		s.copyIdxs[k] = slices.Insert(idx, i, e.to)
	} else {
		if slices.Contains(n.succ, e) {
			return
		}
		if filter == 0 && len(n.succ) >= dupEdgeThreshold {
			s.setCopyIdx(from, newCopyIdx(n.succ, e.to))
		}
	}
	n.succ = append(n.succ, e)
	s.stats.Edges++
	if filter == 0 {
		s.stats.CopyEdges++
	}
	if replay && !n.pts.IsEmpty() {
		s.addPts(to, s.filtered(&n.pts, filter))
	}
}

// copyIdxSlot returns the position of node id's copy-target index in
// copyIdxs, or -1 when it has none.
func (s *solver) copyIdxSlot(id int) int {
	if id < len(s.copyIdxOf) {
		if k := int(s.copyIdxOf[id]) - 1; k >= 0 && s.copyIdxs[k] != nil {
			return k
		}
	}
	return -1
}

// setCopyIdx installs idx as node id's copy-target index; nil drops it.
func (s *solver) setCopyIdx(id int, idx []int32) {
	if id < len(s.copyIdxOf) && s.copyIdxOf[id] != 0 {
		s.copyIdxs[s.copyIdxOf[id]-1] = idx
		return
	}
	if idx == nil {
		return
	}
	for id >= len(s.copyIdxOf) {
		s.copyIdxOf = append(s.copyIdxOf, 0)
	}
	s.copyIdxs = append(s.copyIdxs, idx)
	s.copyIdxOf[id] = int32(len(s.copyIdxs))
}

// newCopyIdx builds a copy-target index over succ's filter-free edges
// plus one more target.
func newCopyIdx(succ []edge, to int32) []int32 {
	idx := make([]int32, 0, 2*(len(succ)+1))
	for _, e := range succ {
		if e.filter == 0 {
			idx = append(idx, e.to)
		}
	}
	idx = append(idx, to)
	slices.Sort(idx)
	return idx
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
		s.addEdge(s.varNode(ctx, stmt.RHS), s.varNode(ctx, stmt.LHS), 0)

	case *lang.Cast:
		rhs := s.varNode(ctx, stmt.RHS)
		s.addEdge(rhs, s.varNode(ctx, stmt.LHS), classFilter(stmt.Type))
		s.casts = append(s.casts, castSite{stmt: stmt, rhsNode: rhs})

	case *lang.Load:
		base := s.varNode(ctx, stmt.Base)
		ld := fieldSite{field: stmt.Field, node: int32(s.varNode(ctx, stmt.LHS)), kind: siteLoad}
		if s.addSite(base, ld) {
			s.replayBase(base, func(obj int) { s.applyLoad(obj, ld) })
		}

	case *lang.Store:
		base, st := s.addStore(ctx, stmt)
		if base >= 0 {
			s.replayBase(base, func(obj int) { s.applyStore(obj, st) })
		}

	case *lang.StaticLoad:
		s.addEdge(s.staticNode(stmt.Field), s.varNode(ctx, stmt.LHS), 0)

	case *lang.StaticStore:
		s.addEdge(s.varNode(ctx, stmt.RHS), s.staticNode(stmt.Field), 0)

	case *lang.Invoke:
		switch stmt.Kind {
		case lang.StaticCall:
			calleeCtx := s.opts.Selector.CalleeContext(s.ctxt, ctx, stmt, stmt.Callee, nil)
			s.addCallEdge(ctx, stmt, calleeCtx, stmt.Callee, -1)
		default: // virtual and special calls dispatch/bind per receiver object
			base := s.varNode(ctx, stmt.Base)
			info := s.nodes.at(base).info
			info.invokes = append(info.invokes, stmt)
			s.replayBase(base, func(obj int) { s.applyInvoke(ctx, obj, stmt) })
		}

	case *lang.Return:
		if stmt.Value != nil && m.RetVar != nil {
			s.addEdge(s.varNode(ctx, stmt.Value), s.varNode(ctx, m.RetVar), 0)
		}

	case *lang.Throw:
		s.addEdge(s.varNode(ctx, stmt.Value), s.varNode(ctx, m.ExcVar()), 0)

	case *lang.Catch:
		s.addEdge(s.varNode(ctx, m.ExcVar()), s.varNode(ctx, stmt.LHS), classFilter(stmt.Type))

	default:
		panic(fmt.Sprintf("pta: unknown statement %T", st))
	}
}

// replayBase applies fn to every object already in base's points-to
// set; future objects are handled by processVarDelta. It iterates a
// snapshot taken into a pooled delta set: callbacks may grow the live
// set through addPts (e.g. the self-load `x = x.f`), and bits added
// mid-replay reach fn later via the pending delta instead of a mutating
// iteration.
func (s *solver) replayBase(base int, fn func(obj int)) {
	pts := &s.nodes.at(base).pts
	if pts.IsEmpty() {
		return
	}
	snap := s.grabSet()
	snap.Union(pts)
	snap.ForEach(func(i int) bool {
		fn(i)
		return true
	})
	s.releaseSet(snap)
}

// addSite registers fs on var node id; false when an identical site is
// already there (a repeated statement), which then needs no replay.
func (s *solver) addSite(id int, fs fieldSite) bool {
	info := s.nodes.at(id).info
	if slices.Contains(info.sites, fs) {
		return false
	}
	info.sites = append(info.sites, fs)
	return true
}

// addStore registers a store on its base and, as a store-out, on its
// right-hand side. It returns the base node and the base's site, or -1
// when the same store was already registered.
func (s *solver) addStore(ctx *Context, stmt *lang.Store) (int, fieldSite) {
	base := s.varNode(ctx, stmt.Base)
	rhs := s.varNode(ctx, stmt.RHS)
	st := fieldSite{field: stmt.Field, node: int32(rhs), kind: siteStore}
	if !s.addSite(base, st) {
		return -1, st
	}
	s.addSite(rhs, fieldSite{field: stmt.Field, node: int32(base), kind: siteStoreOut})
	return base, st
}

// processVarDelta reacts to growth of a variable's points-to set.
func (s *solver) processVarDelta(info *varInfo, delta *bitset.Set) {
	perObj := len(info.invokes) > 0
	for _, fs := range info.sites {
		if fs.kind == siteStoreOut {
			s.storeOut(fs, delta)
		} else {
			perObj = true
		}
	}
	if !perObj {
		return
	}
	ctx := info.ctx
	delta.ForEach(func(obj int) bool {
		for _, fs := range info.sites {
			switch fs.kind {
			case siteLoad:
				s.applyLoad(obj, fs)
			case siteStore:
				s.applyStore(obj, fs)
			}
		}
		for _, inv := range info.invokes {
			s.applyInvoke(ctx, obj, inv)
		}
		return true
	})
}

func (s *solver) applyLoad(obj int, ld fieldSite) {
	s.addEdge(s.fieldNode(obj, ld.field), int(ld.node), 0)
}

// applyStore makes obj.f hold the store's whole right-hand side; the
// right-hand side's later deltas arrive through its store-out.
func (s *solver) applyStore(obj int, st fieldSite) {
	f := s.fieldNode(obj, st.field)
	s.addPts(f, &s.nodes.at(int(st.node)).pts)
}

// storeOut carries a delta of a store's right-hand side into o.f for
// every object o of the store's base. A field node that does not exist
// yet is skipped: o is then still in the base's pending delta, and the
// applyStore that creates o.f unions the whole right-hand side.
func (s *solver) storeOut(out fieldSite, delta *bitset.Set) {
	s.nodes.at(int(out.node)).pts.ForEach(func(obj int) bool {
		if f, ok := s.lookupField(obj, out.field); ok {
			s.addPts(f, delta)
		}
		return true
	})
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
		s.addEdge(s.varNode(callerCtx, a), s.varNode(calleeCtx, callee.Params[i]), 0)
	}
	if inv.LHS != nil && callee.RetVar != nil {
		s.addEdge(s.varNode(calleeCtx, callee.RetVar), s.varNode(callerCtx, inv.LHS), 0)
	}
	// Exceptions escaping the callee may escape the caller too. The edge
	// is added unconditionally: the callee's $exc may only be populated
	// later (e.g. by a throw in one of its own callees), and an edge
	// over still-empty sets costs nothing.
	s.addEdge(s.varNode(calleeCtx, callee.ExcVar()), s.varNode(callerCtx, inv.In.ExcVar()), 0)
}
