package pta

import (
	"context"
	"fmt"
	"sort"

	"mahjong/internal/bitset"
	"mahjong/internal/delta"
	"mahjong/internal/failure"
	"mahjong/internal/faultinject"
	"mahjong/internal/lang"
)

// Incremental re-solving.
//
// SolveIncrementalContext replays a body-only edit through the solver
// without redoing the propagation work for the unaffected part of the
// program. The scheme is monotone warm-seeding:
//
//  1. A taint closure over the *base* solver's final state marks every
//     node whose points-to set could differ in the edited program: the
//     locals of changed methods, everything downstream of a tainted
//     node (copy/cast successors, loads through tainted bases, field
//     nodes stored through tainted bases), and the This/Params/return/
//     exception plumbing of every call edge whose caller changed or
//     whose receiver is tainted. A method all of whose base in-call-
//     edges are tainted may no longer be reachable, so it is treated
//     like a changed method (reach-taint).
//  2. A fresh solver is built for the edited program and fast-forwarded
//     to the base fixpoint (see seedSolver): untainted sets are
//     installed and frozen, unchanged methods' constraints go in
//     without replay, and untainted base call edges are rewired
//     structurally instead of re-dispatched.
//  3. The ordinary worklist run then executes. It re-derives only what
//     the seed did not carry — changed and dirty methods process cold,
//     and their propagation cascades stop wherever they meet a node
//     that already holds the fact (an empty delta queues nothing).
//
// Soundness of the result does not rest on the taint closure: whatever
// is seeded, the run converges to the least fixpoint *above* the seed.
// The closure's job is exactness — it guarantees the seed stays below
// the edited program's least fixpoint (any fact at an untainted node
// has a derivation that uses only untainted nodes and unchanged
// methods, so the edited program re-derives it), which makes the warm
// fixpoint equal to a cold solve's. The A/B equivalence gate in
// incremental_test.go checks that equality over randomized edits.
type IncrementalStats struct {
	// Used reports that warm seeding was actually applied; when false,
	// Fallback names the reason the solve ran from scratch instead.
	Used     bool
	Fallback string

	// TotalMethods and ChangedMethods mirror the diff; DirtyMethods
	// additionally counts methods invalidated by reach-taint.
	TotalMethods   int
	ChangedMethods int
	DirtyMethods   int

	// BaseNodes is the base solver's node count, TaintedNodes how many
	// of its nodes the closure invalidated.
	BaseNodes    int
	TaintedNodes int

	// Seeded* count the new-solver nodes that received a warm set, and
	// SeededFacts the points-to facts installed. SkippedNodes counts
	// untainted nodes whose sets could not be translated (under-seeding
	// is safe; it only costs replay work).
	SeededVars    int
	SeededFields  int
	SeededStatics int
	SkippedNodes  int
	SeededFacts   int64

	// InstalledMethods counts unchanged methods whose constraints were
	// installed without replay, TranslatedCallEdges the retained call
	// edges rewired without re-dispatching their receivers.
	InstalledMethods    int
	TranslatedCallEdges int
}

// SolveIncremental is SolveIncrementalContext without cancellation.
func SolveIncremental(prog *lang.Program, opts Options, base *Result, d *delta.Diff) (*Result, *IncrementalStats, error) {
	return SolveIncrementalContext(context.Background(), prog, opts, base, d) //lint:allow ctxflow documented context-free compat shim over SolveIncrementalContext
}

// SolveIncrementalContext solves prog, warm-seeded from a retained base
// Result when the edit described by d is eligible (body-only, context-
// insensitive, allocation-site heap, complete base). Ineligible or
// faulted preparations fall back to a from-scratch solve — the returned
// IncrementalStats says which happened and why. The Result is
// indistinguishable from SolveContext's either way.
func SolveIncrementalContext(ctx context.Context, prog *lang.Program, opts Options, base *Result, d *delta.Diff) (res *Result, stats *IncrementalStats, err error) {
	// The inner solves carry their own pta.solve guard; this one catches
	// panics in the incremental plumbing itself (eligibility, stats).
	defer failure.Recover(faultinject.StageSeed, &err)
	stats = &IncrementalStats{}
	if base != nil && base.solver != nil {
		stats.BaseNodes = len(base.solver.nodes)
	}
	if d != nil {
		stats.TotalMethods = d.TotalMethods
		stats.ChangedMethods = len(d.Changed)
	}
	reason := incrementalEligibility(prog, opts, base, d)
	if reason == "" {
		seedFn, serr := prepareSeed(opts, base, d, stats)
		if serr != nil {
			// Injected StageSeed faults and internal bugs land here: the
			// incremental path is an optimization, so degrade to a cold
			// solve rather than failing the job.
			reason = "seed preparation failed: " + serr.Error()
		} else {
			warm := opts
			warm.seed = seedFn
			res, err = SolveContext(ctx, prog, warm)
			if err != nil {
				return nil, stats, err
			}
			stats.Used = true
			return res, stats, nil
		}
	}
	stats.Fallback = reason
	res, err = SolveContext(ctx, prog, opts)
	return res, stats, err
}

// incrementalEligibility returns "" when warm seeding applies, else the
// reason it does not.
func incrementalEligibility(prog *lang.Program, opts Options, base *Result, d *delta.Diff) string {
	if base == nil || base.solver == nil {
		return "no base result"
	}
	if base.Aborted {
		return "base result is partial (work budget aborted)"
	}
	if d == nil {
		return "no diff"
	}
	if !d.BodyOnly {
		return "shape change: " + d.Reason
	}
	if d.Base != base.Prog || d.Next != prog {
		return "diff does not link the base and edited programs"
	}
	if !isCISelector(base.Opts.Selector) || !isCISelector(opts.Selector) {
		return "context-sensitive analysis"
	}
	if _, ok := base.Opts.Heap.(*AllocSiteModel); !ok {
		return "base heap model is not alloc-site"
	}
	if opts.Heap != nil {
		m, ok := opts.Heap.(*AllocSiteModel)
		if !ok {
			return "heap model is not alloc-site"
		}
		if len(m.Objs()) != 0 {
			return "heap model already populated"
		}
	}
	return ""
}

func isCISelector(sel Selector) bool {
	if sel == nil {
		return true
	}
	_, ok := sel.(CI)
	return ok
}

// prepareSeed runs the taint closure over the base solver under the
// "pta.seed" stage guard and returns the seeding closure the new solve
// will execute. The closure itself runs inside SolveContext, under the
// "pta.solve" guard.
func prepareSeed(opts Options, base *Result, d *delta.Diff, st *IncrementalStats) (fn func(*solver) error, err error) {
	// Span-close defer precedes the stage guard so it observes the
	// recovered error (the pta.solve idiom).
	sp := opts.Trace.Start(faultinject.StageSeed)
	defer func() { sp.Close(err) }()
	defer failure.Recover(faultinject.StageSeed, &err)
	if err := faultinject.Fire(faultinject.StageSeed); err != nil {
		return nil, fmt.Errorf("pta: seed: %w", err)
	}

	t := newTainter(base.solver, d)
	if d.Additive {
		// A grown body only adds constraints; the analysis is monotone,
		// so every base fact is still below the edited program's fixpoint
		// and the whole base state replays without any invalidation.
		sp.Add("additive", 1)
	} else {
		t.run()
	}
	st.TaintedNodes = t.count
	st.DirtyMethods = t.numDirty
	sp.Add("base_nodes", int64(len(base.solver.nodes)))
	sp.Add("tainted_nodes", int64(t.count))
	sp.Add("changed_methods", int64(len(d.Changed)))
	sp.Add("dirty_methods", int64(t.numDirty))
	return func(s *solver) error {
		return seedSolver(s, base.solver, d, t, st)
	}, nil
}

// tainter computes the invalidation closure over a finished base solver.
type tainter struct {
	bs *solver
	d  *delta.Diff

	tainted []bool // by base node id
	count   int
	nodeWL  []int

	dirty    []bool // by base Method.ID: changed bodies + reach-tainted methods
	numDirty int
	methodWL []*lang.Method

	// The base call graph: every eligible base solve is context-
	// insensitive, so its call edges are exactly the CI edges, keyed by
	// their dense IDs.
	byCaller    [][]ciEdge // by caller Method.ID
	byInv       [][]ciEdge // by Invoke.ID
	inEdges     []int      // by callee Method.ID
	taintedIn   []int      // by callee Method.ID
	edgeTainted []bool     // by CI edge ID
}

// ciEdge is one base call-graph edge.
type ciEdge struct {
	id     int
	inv    *lang.Invoke
	callee *lang.Method
}

func newTainter(bs *solver, d *delta.Diff) *tainter {
	nm := len(bs.prog.Methods)
	t := &tainter{
		bs:          bs,
		d:           d,
		tainted:     make([]bool, len(bs.nodes)),
		dirty:       make([]bool, nm),
		byCaller:    make([][]ciEdge, nm),
		byInv:       make([][]ciEdge, len(bs.sites)),
		inEdges:     make([]int, nm),
		taintedIn:   make([]int, nm),
		edgeTainted: make([]bool, bs.numCIEdges),
	}
	for i := range bs.sites {
		cs := &bs.sites[i]
		for _, tg := range cs.targets {
			k := ciEdge{id: int(tg.id), inv: cs.inv, callee: tg.callee}
			t.byCaller[k.inv.In.ID] = append(t.byCaller[k.inv.In.ID], k)
			t.byInv[i] = append(t.byInv[i], k)
			t.inEdges[k.callee.ID]++
		}
	}
	return t
}

// edgesOf returns binv's base call edges, in discovery order.
func (t *tainter) edgesOf(binv *lang.Invoke) []ciEdge {
	if t.bs.lookupSite(binv) == nil {
		return nil
	}
	return t.byInv[binv.ID]
}

// run drives the closure to its fixpoint. The result is a set, so the
// processing order does not affect it.
func (t *tainter) run() {
	for _, m := range t.d.Changed {
		t.markDirty(m)
	}
	for len(t.methodWL) > 0 || len(t.nodeWL) > 0 {
		if n := len(t.methodWL); n > 0 {
			m := t.methodWL[n-1]
			t.methodWL = t.methodWL[:n-1]
			t.processDirty(m)
			continue
		}
		n := len(t.nodeWL)
		id := t.nodeWL[n-1]
		t.nodeWL = t.nodeWL[:n-1]
		t.processNode(id)
	}
}

func (t *tainter) markDirty(m *lang.Method) {
	if !t.dirty[m.ID] {
		t.dirty[m.ID] = true
		t.numDirty++
		t.methodWL = append(t.methodWL, m)
	}
}

func (t *tainter) markNode(id int) {
	if !t.tainted[id] {
		t.tainted[id] = true
		t.count++
		t.nodeWL = append(t.nodeWL, id)
	}
}

func (t *tainter) markVar(v *lang.Var) {
	t.bs.forEachVarNode(v, t.markNode)
}

// processDirty invalidates everything a rewritten (or possibly
// unreachable) method body contributed: all of its variables' nodes and
// every call edge it owns.
func (t *tainter) processDirty(m *lang.Method) {
	for _, v := range m.Locals {
		t.markVar(v)
	}
	for _, k := range t.byCaller[m.ID] {
		t.taintEdge(k)
	}
}

// processNode propagates taint across everything derived from the
// node's set: successor edges, loads and stores through it, and calls
// dispatched on it.
func (t *tainter) processNode(id int) {
	n := &t.bs.nodes[id]
	for _, e := range n.succ {
		t.markNode(e.to)
	}
	if n.info != nil {
		t.taintInfo(n.info, &n.pts)
	}
}

func (t *tainter) taintInfo(info *varInfo, pts *bitset.Set) {
	for _, ld := range info.loads {
		t.markNode(ld.lhs)
	}
	for _, stn := range info.stores {
		field := stn.field
		pts.ForEach(func(obj int) bool {
			if fid, ok := t.bs.lookupField(obj, field); ok {
				t.markNode(fid)
			}
			return true
		})
	}
	for _, inv := range info.invokes {
		for _, k := range t.edgesOf(inv) {
			t.taintEdge(k)
		}
	}
}

// taintEdge invalidates the facts one call edge installs: the callee's
// This and Params, the caller's result variable, and the caller's
// exception sink. When a callee's base in-edges are all tainted its
// reachability is uncertain, so it becomes dirty (unless it is the
// entry, which is reachable by definition).
func (t *tainter) taintEdge(k ciEdge) {
	if t.edgeTainted[k.id] {
		return
	}
	t.edgeTainted[k.id] = true
	t.taintedIn[k.callee.ID]++
	if k.callee.This != nil {
		t.markVar(k.callee.This)
	}
	for _, p := range k.callee.Params {
		t.markVar(p)
	}
	if k.inv.LHS != nil {
		t.markVar(k.inv.LHS)
	}
	if k.inv.In.HasExcVar() {
		t.markVar(k.inv.In.ExcVar())
	}
	if k.callee != t.bs.prog.Entry && t.taintedIn[k.callee.ID] == t.inEdges[k.callee.ID] {
		t.markDirty(k.callee)
	}
}

// objUnknown marks a not-yet-computed entry in the object translation
// cache; untranslatable objects are cached as -1.
const objUnknown = -2

// objTranslator rebinds base context-sensitive object IDs (the bit
// positions of base points-to sets) to the edited program's IDs through
// the allocation-site map of the diff.
type objTranslator struct {
	s, bs *solver
	d     *delta.Diff
	cache []int
}

func newObjTranslator(s, bs *solver, d *delta.Diff) *objTranslator {
	t := &objTranslator{s: s, bs: bs, d: d, cache: make([]int, len(bs.csobjs))}
	for i := range t.cache {
		t.cache[i] = objUnknown
	}
	return t
}

func (t *objTranslator) trObj(b int) int {
	if t.cache[b] != objUnknown {
		return t.cache[b]
	}
	r := -1
	o := t.bs.csobjs[b]
	// Context-insensitive only: under the alloc-site model Obj.Rep is
	// the allocation site itself, and the site map carries it across.
	if o.Ctx == t.bs.emptyHeap {
		if nsite := t.d.Sites[o.Obj.Rep]; nsite != nil {
			r = t.s.csObj(t.s.emptyHeap, t.s.opts.Heap.Obj(nsite))
		}
	}
	t.cache[b] = r
	return r
}

// seeder carries the state of one warm-seeding pass over the new solver.
type seeder struct {
	s, bs *solver
	d     *delta.Diff
	t     *tainter
	tr    *objTranslator
	st    *IncrementalStats
	buf   []int

	// frozen marks (by new-solver node id) the nodes whose sets were
	// installed from the base fixpoint. Replays into a frozen node are
	// skipped: under the taint closure its set is already final, and
	// under an additive edit it is closed under every base constraint,
	// so either way an install-time replay cannot add a fact.
	frozen []bool

	// nodeMap translates base node ids to new-solver ids (-1 where no
	// seeded counterpart exists). bulk is set when an additive edit let
	// every base node map: the whole base edge structure is then copied
	// mechanically and the per-statement passes only register sites.
	nodeMap []int
	bulk    bool
}

// seedSolver fast-forwards the fresh solver s to the base fixpoint:
//
//  1. Every untainted base node's set — translated through the
//     structural maps of delta.Diff — is installed directly into the
//     new node's bitset with no worklist entry, and the node is marked
//     frozen (its set is final).
//  2. Every unchanged, non-dirty, base-reachable method is pre-marked
//     reachable and its constraints are installed without replaying
//     into frozen targets: statement edges are inserted, load/store/
//     invoke sites registered, and field edges derived straight from
//     the seeded receiver sets. Per-object work happens once per site,
//     never per propagation.
//  3. The base call graph is replayed structurally: each untainted
//     retained call edge is rewired to the edited program — callee
//     reachability, argument/return/exception plumbing, call-graph
//     entries — without dispatching a single receiver object. Receiver
//     This-bindings are part of the seeded sets.
//
// The ordinary worklist run then re-derives only the changed region.
// Iteration follows the base program's declaration and reach order
// (never Go map order) so repeated runs build identical solvers.
func seedSolver(s, bs *solver, d *delta.Diff, t *tainter, st *IncrementalStats) (err error) {
	// The seed runs before run()'s sentinel recovery, so detach the
	// resource meter (settled in one batch at the end, with plain-error
	// reporting) and catch the time/work-budget sentinels here.
	meter := s.meter
	s.meter = nil
	defer func() { s.meter = meter }()
	defer func() {
		switch r := recover(); r {
		case nil:
		case errBudgetSentinel:
			err = fmt.Errorf("pta: seed aborted: work budget exhausted")
		case errCancelSentinel:
			if err = s.ctx.Err(); err == nil {
				err = context.Canceled
			}
		default:
			panic(r)
		}
	}()

	x := &seeder{s: s, bs: bs, d: d, t: t, tr: newObjTranslator(s, bs, d), st: st}
	x.frozen = make([]bool, 0, len(bs.nodes))
	x.nodeMap = make([]int, len(bs.nodes))
	for i := range x.nodeMap {
		x.nodeMap[i] = -1
	}
	if err := x.seedSets(); err != nil {
		return err
	}
	if d.Additive {
		x.bulk = x.copyEdges()
	}
	if err := x.installMethods(); err != nil {
		return err
	}
	if err := x.translateCalls(); err != nil {
		return err
	}
	if meter != nil {
		words := 0
		for i := range s.nodes {
			words += s.nodes[i].pts.Words()
		}
		if err := meter.AddWords(int64(words)); err != nil {
			return err
		}
		if err := meter.AddFacts(s.work); err != nil {
			return err
		}
	}
	return nil
}

// seedSets installs the translated base points-to sets (phase 1).
func (x *seeder) seedSets() error {
	s, bs, d := x.s, x.bs, x.d

	// Variable nodes, in class/method/local declaration order.
	for _, bc := range bs.prog.Classes {
		if err := x.interrupted(); err != nil {
			return err
		}
		for _, bm := range bc.DeclaredMethods {
			if bm.IsAbstract {
				continue
			}
			// Changed methods are covered too when the diff mapped their
			// variables (additive edits): in taint mode their locals are
			// all tainted and seedNode skips them anyway.
			for _, bv := range bm.Locals {
				nv := d.Vars[bv]
				if nv == nil {
					continue
				}
				baseID, ok := bs.lookupVar(bs.emptyHeap, bv)
				if !ok {
					continue // method not reachable in the base solve
				}
				if err := x.seedNode(baseID, &x.st.SeededVars, func() int {
					return s.varNode(s.emptyHeap, nv)
				}); err != nil {
					return err
				}
			}
		}
	}

	// Field nodes, by (object ID, field ID).
	var ferr error
	bs.forEachFieldNode(func(obj int, f *lang.Field, baseID int) {
		if ferr != nil {
			return
		}
		nf := d.Fields[f]
		if nf == nil {
			return // e.g. an array class the edited program no longer creates
		}
		nObj := x.tr.trObj(obj)
		if nObj < 0 {
			return
		}
		ferr = x.seedNode(baseID, &x.st.SeededFields, func() int {
			return s.fieldNode(nObj, nf)
		})
	})
	if ferr != nil {
		return ferr
	}

	// Static field nodes, in program field-declaration order.
	for _, f := range bs.prog.Fields {
		if !f.IsStatic {
			continue
		}
		baseID, ok := bs.lookupStatic(f)
		if !ok {
			continue
		}
		nf := d.Fields[f]
		if nf == nil {
			continue
		}
		if err := x.seedNode(baseID, &x.st.SeededStatics, func() int {
			return s.staticNode(nf)
		}); err != nil {
			return err
		}
	}
	return nil
}

func (x *seeder) interrupted() error {
	if x.s.ctx != nil {
		if err := x.s.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// seedNode copies one untainted base node's translated set into the new
// node mk() creates and freezes it — an untainted set, even an empty
// one, is already the edited program's final set. Tainted nodes are not
// created here (they stay unfrozen and fill by propagation); nodes
// whose sets are not fully translatable are skipped — skipping can only
// under-seed, which costs replay work but never exactness.
func (x *seeder) seedNode(baseID int, counter *int, mk func() int) error {
	if x.t.tainted[baseID] {
		return nil
	}
	src := &x.bs.nodes[baseID].pts
	ok := true
	x.buf = x.buf[:0]
	src.ForEach(func(b int) bool {
		nb := x.tr.trObj(b)
		if nb < 0 {
			ok = false
			return false
		}
		x.buf = append(x.buf, nb)
		return true
	})
	if !ok {
		x.st.SkippedNodes++
		return nil
	}
	nid := mk()
	x.markFrozen(nid)
	x.nodeMap[baseID] = nid
	n := &x.s.nodes[nid] // after mk(): it may grow s.nodes
	added := int64(0)
	for _, b := range x.buf {
		if n.pts.Add(b) {
			added++
		}
	}
	x.st.SeededFacts += added
	*counter++
	return nil
}

// markFrozen grows by append (amortized, not a fresh copy per node: the
// seed freezes nodes as it creates them, so id is almost always exactly
// len(frozen)).
func (x *seeder) markFrozen(id int) {
	for id >= len(x.frozen) {
		x.frozen = append(x.frozen, false)
	}
	x.frozen[id] = true
}

// isFrozen reports whether the new node's set was installed from the
// base fixpoint.
func (x *seeder) isFrozen(id int) bool {
	return id < len(x.frozen) && x.frozen[id]
}

// edge inserts a statement-installed flow edge, replaying the source
// set only into unfrozen targets (a frozen target already holds every
// fact the replay would push).
func (x *seeder) edge(from, to int, filter *lang.Class) {
	x.s.addEdgeIf(from, to, filter, !x.isFrozen(to))
}

// copyEdges translates the base solver's entire flow-edge structure —
// statement edges and every object-derived load/store/call edge — by
// renaming node ids, skipping the per-object re-derivation that
// otherwise dominates a warm solve. Valid only for additive edits (no
// base edge lost its derivation), and only when every base node found a
// seeded counterpart. Returns false to fall back to per-statement
// installation; a partial copy is harmless then — the copied edges are
// all still valid and addEdgeIf deduplicates against them.
func (x *seeder) copyEdges() bool {
	bs, s := x.bs, x.s
	if x.st.SkippedNodes > 0 {
		return false
	}
	for _, nid := range x.nodeMap {
		if nid < 0 {
			return false
		}
	}
	classes := make(map[*lang.Class]*lang.Class)
	edges, copyEdges := 0, 0
	// Flush the counters even on a fallback return: partially copied
	// edges stay (they are valid; the per-statement path deduplicates
	// against them) and must stay counted.
	defer func() {
		s.stats.Edges += edges
		s.stats.CopyEdges += copyEdges
	}()
	for id := range bs.nodes {
		succ := bs.nodes[id].succ
		if len(succ) == 0 {
			continue
		}
		nid := x.nodeMap[id]
		n := &s.nodes[nid]
		for _, e := range succ {
			filter := e.filter
			if filter != nil {
				nc, ok := classes[filter]
				if !ok {
					nc = x.d.Next.Class(filter.Name)
					classes[filter] = nc
				}
				if nc == nil {
					return false // a filter class the edited program lacks
				}
				filter = nc
			} else {
				copyEdges++
			}
			n.succ = append(n.succ, edge{to: x.nodeMap[e.to], filter: filter})
			edges++
		}
		// No copy-target index is built here even past dupEdgeThreshold:
		// the copied lists are duplicate-free by construction, and
		// addEdgeIf indexes a node lazily if a later insert ever needs
		// the dedup. Any index the node had no longer covers its list.
		n.copyIdx = nil
	}
	return true
}

// installMethods (phase 2) pre-marks every unchanged, non-dirty,
// base-reachable method and installs its constraints without worklist
// replay. Dirty methods — reachability uncertain after the edit — are
// left out entirely; if the edited program still reaches one, the
// ordinary makeReachable processes it cold.
func (x *seeder) installMethods() error {
	s := x.s
	empty := s.ctxt.Empty()
	for _, bk := range x.bs.reachList {
		if err := x.interrupted(); err != nil {
			return err
		}
		bm := bk.m
		if x.d.MethodChanged(bm) || x.t.dirty[bm.ID] {
			continue
		}
		nm := x.d.Methods[bm]
		if nm == nil || len(bm.Stmts) != len(nm.Stmts) {
			continue
		}
		if !s.markReachable(empty, nm) {
			// A needsDispatch replay below already reached it cold; its
			// constraints are fully installed.
			continue
		}
		s.chargeWork(1)
		x.st.InstalledMethods++
		for i, st := range nm.Stmts {
			x.installStmt(empty, nm, bm.Stmts[i], st)
		}
	}
	return nil
}

// installStmt is processStmt for an unchanged method: identical
// registration and edge structure, but derived work is read off the
// frozen sets once instead of replayed per propagation, and nothing is
// pushed into a frozen target. bst is the statement's base-program
// counterpart (the bodies are positionally alike). In bulk mode every
// edge this would insert — statement edges and per-object derivations
// alike — was already copied wholesale, so only the side tables are
// registered: load/store/invoke sites, cast sites.
func (x *seeder) installStmt(ctx *Context, m *lang.Method, bst, st lang.Stmt) {
	s := x.s
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
		lhs := s.varNode(ctx, stmt.LHS)
		if !x.isFrozen(lhs) {
			s.addPtsOne(lhs, cs)
		}

	case *lang.Copy:
		if x.bulk {
			return
		}
		x.edge(s.varNode(ctx, stmt.RHS), s.varNode(ctx, stmt.LHS), nil)

	case *lang.Cast:
		rhs := s.varNode(ctx, stmt.RHS)
		if !x.bulk {
			x.edge(rhs, s.varNode(ctx, stmt.LHS), stmt.Type)
		}
		s.casts = append(s.casts, castSite{stmt: stmt, rhsNode: rhs})

	case *lang.Load:
		base := s.varNode(ctx, stmt.Base)
		ls := loadSite{field: stmt.Field, lhs: s.varNode(ctx, stmt.LHS)}
		s.nodes[base].info.loads = append(s.nodes[base].info.loads, ls)
		if x.bulk {
			return // field edges for the seeded receivers were copied
		}
		if x.isFrozen(base) {
			x.replayFrozen(base, func(obj int) { x.edge(s.fieldNode(obj, ls.field), ls.lhs, nil) })
		} else {
			s.replayBase(base, func(obj int) { s.applyLoad(obj, ls) })
		}

	case *lang.Store:
		base := s.varNode(ctx, stmt.Base)
		ss := storeSite{field: stmt.Field, rhs: s.varNode(ctx, stmt.RHS)}
		s.nodes[base].info.stores = append(s.nodes[base].info.stores, ss)
		if x.bulk {
			return // field edges for the seeded receivers were copied
		}
		if x.isFrozen(base) {
			x.replayFrozen(base, func(obj int) { x.edge(ss.rhs, s.fieldNode(obj, ss.field), nil) })
		} else {
			s.replayBase(base, func(obj int) { s.applyStore(obj, ss) })
		}

	case *lang.StaticLoad:
		if x.bulk {
			return
		}
		x.edge(s.staticNode(stmt.Field), s.varNode(ctx, stmt.LHS), nil)

	case *lang.StaticStore:
		if x.bulk {
			return
		}
		x.edge(s.varNode(ctx, stmt.RHS), s.staticNode(stmt.Field), nil)

	case *lang.Invoke:
		if stmt.Kind == lang.StaticCall {
			return // the retained call edge is translated in translateCalls
		}
		base := s.varNode(ctx, stmt.Base)
		s.nodes[base].info.invokes = append(s.nodes[base].info.invokes, stmt)
		if binv, ok := bst.(*lang.Invoke); ok && x.isFrozen(base) && !x.needsDispatch(binv) {
			return // call edges are translated in translateCalls
		}
		s.replayBase(base, func(obj int) { s.applyInvoke(ctx, obj, stmt) })

	case *lang.Return:
		if x.bulk {
			return
		}
		if stmt.Value != nil && m.RetVar != nil {
			x.edge(s.varNode(ctx, stmt.Value), s.varNode(ctx, m.RetVar), nil)
		}

	case *lang.Throw:
		if x.bulk {
			return
		}
		x.edge(s.varNode(ctx, stmt.Value), s.varNode(ctx, m.ExcVar()), nil)

	case *lang.Catch:
		if x.bulk {
			return
		}
		x.edge(s.varNode(ctx, m.ExcVar()), s.varNode(ctx, stmt.LHS), stmt.Type)

	default:
		panic(fmt.Sprintf("pta: unknown statement %T", st))
	}
}

// replayFrozen iterates a frozen (final) set. A snapshot like
// replayBase's is unnecessary — frozen sets never grow — but fieldNode
// may append to s.nodes, so the set pointer must be re-read per
// element; Clone sidesteps that for the same price as replayBase.
func (x *seeder) replayFrozen(base int, fn func(obj int)) {
	pts := &x.s.nodes[base].pts
	if pts.IsEmpty() {
		return
	}
	snap := pts.Clone()
	snap.ForEach(func(i int) bool {
		fn(i)
		return true
	})
}

// needsDispatch reports whether a frozen-receiver call site still needs
// the per-object dispatch replay: when any base callee's This variable
// is not frozen in the new solver (tainted, changed callee, or an
// untranslatable set), the receiver bindings this site's untainted
// edges contributed are not re-derived anywhere else, so the site falls
// back to the ordinary replay — translateCalls then deduplicates the
// edges it re-adds.
func (x *seeder) needsDispatch(binv *lang.Invoke) bool {
	for _, k := range x.t.edgesOf(binv) {
		if k.callee.This == nil {
			continue
		}
		nThis := x.d.Vars[k.callee.This]
		if nThis == nil {
			return true
		}
		if !x.isFrozen(x.s.varNode(x.s.ctxt.Empty(), nThis)) {
			return true
		}
	}
	return false
}

// translateCalls (phase 3) replays the base call graph for unchanged,
// non-dirty callers: each untainted retained edge is installed directly
// — callee reachability, call-graph entries, argument/return/exception
// wiring — without dispatching receiver objects. Receiver This-bindings
// are already part of the seeded sets for every edge this skips
// (needsDispatch caught the rest at install time). A changed callee is
// processed cold by the makeReachable inside translateEdge.
func (x *seeder) translateCalls() error {
	empty := x.s.ctxt.Empty()
	for _, bk := range x.bs.reachList {
		if err := x.interrupted(); err != nil {
			return err
		}
		bm := bk.m
		if x.d.MethodChanged(bm) || x.t.dirty[bm.ID] {
			continue
		}
		for _, st := range bm.Stmts {
			binv, ok := st.(*lang.Invoke)
			if !ok {
				continue
			}
			edges := x.t.edgesOf(binv)
			if len(edges) == 0 {
				continue
			}
			ninv := x.d.Invokes[binv]
			if ninv == nil {
				continue
			}
			if len(edges) > 1 {
				// Install edges (and create nodes) in callee-name order.
				sort.Slice(edges, func(i, j int) bool {
					return edges[i].callee.String() < edges[j].callee.String()
				})
			}
			for _, k := range edges {
				if x.t.edgeTainted[k.id] {
					continue // re-derived by propagation through the tainted region
				}
				ncallee := x.d.Methods[k.callee]
				if ncallee == nil || ncallee.IsAbstract {
					continue
				}
				x.translateEdge(empty, ninv, ncallee)
			}
		}
	}
	return nil
}

func (x *seeder) translateEdge(empty *Context, inv *lang.Invoke, callee *lang.Method) {
	s := x.s
	s.makeReachable(empty, callee)
	if !s.newCallEdge(empty, inv, empty, callee) {
		return
	}
	if !x.bulk { // bulk copy already carried the parameter/return/exception edges
		for i, a := range inv.Args {
			x.edge(s.varNode(empty, a), s.varNode(empty, callee.Params[i]), nil)
		}
		if inv.LHS != nil && callee.RetVar != nil {
			x.edge(s.varNode(empty, callee.RetVar), s.varNode(empty, inv.LHS), nil)
		}
		x.edge(s.varNode(empty, callee.ExcVar()), s.varNode(empty, inv.In.ExcVar()), nil)
	}
	x.st.TranslatedCallEdges++
}
