package pta

import (
	"runtime/debug"
	"slices"

	"mahjong/internal/bitset"
	"mahjong/internal/failure"
	"mahjong/internal/faultinject"
	"mahjong/internal/unionfind"
)

// Copy-cycle collapsing.
//
// Filter-free copy edges that form a cycle force every member onto the
// same points-to set at the fixpoint, yet the naive solver re-propagates
// each fact once per member, per lap. The solver therefore condenses
// strongly connected components of the copy subgraph onto one
// representative node (union-find), so a cycle propagates once.
//
// Detection is lazy, in the spirit of Nuutila's online SCC variant:
// rather than paying a reachability query on every copy-edge insertion,
// the solver counts insertions (solver.newCopyEdges) and runs one
// iterative SCC pass over the current copy subgraph when the count
// crosses solver.sccTrigger; the trigger then scales with the graph so
// the total condensation cost stays O(E · log E). The pass runs only
// between worklist pops — never inside statement processing — so no
// interior pointers into solver.nodes are live while nodes are merged.
//
// Collapsing is semantics-preserving: members of a filter-free copy
// cycle have provably equal sets at the fixpoint, and after a merge the
// representative re-propagates its full set once so that every
// inherited successor edge and varInfo observes every fact.

const sccMinTrigger = 128

// collapseCycles runs one condensation pass and resets the trigger.
func (s *solver) collapseCycles() {
	// Each pass gets its own child span under the solve span. A budget
	// or cancellation sentinel (or a panic) can unwind mid-Tarjan, past
	// this frame without returning; the deferred CloseAborted closes the
	// span during that unwind — no recover here, the sentinel must keep
	// travelling to run()'s handler — while the normal path's End wins
	// when the pass completes.
	csp := s.span.Ctx().Start(faultinject.StageCollapse)
	defer csp.CloseAborted()
	// Injection seam for the fault matrix: a typed error panics through
	// the run loop's sentinel recovery (which re-raises non-sentinels)
	// into the stage guard, reproducing a bug striking while Tarjan
	// state is live; the pre-typed stage keeps "pta.collapse" visible in
	// per-stage failure counters.
	if err := faultinject.Fire(faultinject.StageCollapse); err != nil {
		panic(&failure.InternalError{Stage: faultinject.StageCollapse, Value: err, Stack: debug.Stack()})
	}
	sccsBefore, nodesBefore := s.stats.CollapsedSCCs, s.stats.CollapsedNodes
	s.newCopyEdges = 0
	s.stats.SCCPasses++
	s.tarjanCopySCCs()
	// Re-arm: another pass only after the copy subgraph has grown by a
	// constant fraction, keeping the amortized cost near-linear.
	s.sccTrigger = s.stats.CopyEdges / 4
	if s.sccTrigger < sccMinTrigger {
		s.sccTrigger = sccMinTrigger
	}
	// Per-pass deltas: summed over all collapse spans they equal the
	// solve span's totals — the accounting the integration test checks.
	csp.Add("collapsed_sccs", int64(s.stats.CollapsedSCCs-sccsBefore))
	csp.Add("collapsed_nodes", int64(s.stats.CollapsedNodes-nodesBefore))
	csp.End()
}

// tarjanCopySCCs finds SCCs of the filter-free copy subgraph (over
// current representatives) with an iterative Tarjan walk and collapses
// every component of size >= 2.
func (s *solver) tarjanCopySCCs() {
	n := len(s.nodes)
	index := make([]int32, n) // 0 = unvisited, else order+1
	low := make([]int32, n)
	onStack := make([]bool, n)
	var stack []int32 // Tarjan's component stack
	var next int32 = 1

	type frame struct {
		v  int32
		ei int // next successor index to examine
	}
	var dfs []frame

	for root := 0; root < n; root++ {
		if root&1023 == 1023 {
			// Deadline/cancellation polling mid-pass: the condensation walk
			// performs real work outside the fact counter, and a pass over
			// a large graph must still honor the job's deadline. The
			// sentinel unwinds through the frames above; the abandoned
			// Tarjan state is local to this call and simply dropped.
			s.pollInterrupt()
		}
		if index[root] != 0 || s.find(root) != root {
			continue
		}
		dfs = append(dfs[:0], frame{v: int32(root)})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true

		for len(dfs) > 0 {
			f := &dfs[len(dfs)-1]
			v := int(f.v)
			succ := s.nodes[v].succ
			advanced := false
			for f.ei < len(succ) {
				e := succ[f.ei]
				f.ei++
				if e.filter != nil {
					continue
				}
				w := s.find(e.to)
				if w == v {
					continue
				}
				if index[w] == 0 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, int32(w))
					onStack[w] = true
					dfs = append(dfs, frame{v: int32(w)})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished: fold its lowlink into the parent and pop.
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := int(dfs[len(dfs)-1].v)
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != index[v] {
				continue
			}
			// v is an SCC root: pop its component off the stack.
			base := len(stack) - 1
			for stack[base] != int32(v) {
				base--
			}
			comp := stack[base:]
			for _, m := range comp {
				onStack[m] = false
			}
			if len(comp) > 1 {
				s.collapse(comp)
			}
			stack = stack[:base]
		}
	}
}

// collapse merges the member nodes of one copy SCC onto a union-find
// representative: points-to sets, pending deltas, successor edges and
// var payloads all move to the representative, and the merged set is
// queued for one full re-propagation so every inherited edge and site
// list observes every fact exactly once more.
func (s *solver) collapse(members []int32) {
	if s.reps == nil {
		s.reps = unionfind.New(len(s.nodes))
	} else {
		s.reps.Grow(len(s.nodes))
	}
	for _, m := range members[1:] {
		s.reps.Union(int(members[0]), int(m))
	}
	rep := s.reps.Find(int(members[0]))
	s.stats.CollapsedSCCs++
	s.stats.CollapsedNodes += len(members) - 1

	for _, m32 := range members {
		m := int(m32)
		if m == rep {
			continue
		}
		// Fold the member's set and pending delta into the rep. addPts
		// resolves through find, which now lands on rep.
		s.addPts(rep, &s.nodes[m].pts)
		if p := s.pending[m]; p != nil {
			s.addPts(rep, p)
			s.pending[m] = nil
			s.releaseSet(p)
		}
		mn := &s.nodes[m]
		rn := &s.nodes[rep]
		rn.succ = append(rn.succ, mn.succ...)
		if mn.info != nil {
			rn.merged = append(rn.merged, mn.info)
		}
		rn.merged = append(rn.merged, mn.merged...)
		// Release the member's now-dead storage; the node stays as a
		// forwarding entry (its info pointer keeps serving processStmt).
		// The freed words are credited back to the resource meter, so
		// collapsing lowers budget pressure the way it lowers RSS.
		if s.meter != nil {
			s.meter.AddWords(int64(-mn.pts.Words())) //nolint:errcheck // credits cannot exhaust
		}
		mn.pts = bitset.Set{}
		mn.succ = nil
		mn.copyIdx = nil
		mn.merged = nil
	}
	s.rebuildSucc(rep)

	// One full re-propagation of the merged set: successor edges
	// inherited from members may not have seen facts the rep already
	// had (and vice versa). Propagation is idempotent, so replaying the
	// whole set is safe, and it happens once per collapse rather than
	// once per member per lap of the former cycle.
	if !s.nodes[rep].pts.IsEmpty() {
		p := s.pending[rep]
		if p == nil {
			p = s.grabSet()
			s.pending[rep] = p
		}
		p.Union(&s.nodes[rep].pts)
		s.queue(rep)
	}
}

// rebuildSucc canonicalizes rep's successor list after a merge:
// targets resolved to representatives, duplicates removed (the first
// occurrence kept, so propagation order is unchanged), filter-free
// self-loops dropped. A long list is deduplicated against a sorted
// index of its distinct copy targets, which then becomes the node's
// copy-target index.
func (s *solver) rebuildSucc(rep int) {
	n := &s.nodes[rep]
	long := len(n.succ) > dupEdgeThreshold
	var idx []int32 // distinct copy targets, ascending (long lists only)
	var kept []bool // kept[i]: an edge to idx[i] is already in out
	if long {
		for _, e := range n.succ {
			if e.filter == nil {
				if t := s.find(e.to); t != rep {
					idx = append(idx, int32(t))
				}
			}
		}
		slices.Sort(idx)
		idx = slices.Compact(idx)
		kept = make([]bool, len(idx))
	}
	out := n.succ[:0]
	var filters []edge // filtered edges kept so far (long lists only)
	for _, e := range n.succ {
		e.to = s.find(e.to)
		if e.to == rep && e.filter == nil {
			continue
		}
		switch {
		case !long:
			if slices.Contains(out, e) {
				continue
			}
		case e.filter == nil:
			i, _ := slices.BinarySearch(idx, int32(e.to))
			if kept[i] {
				continue
			}
			kept[i] = true
		default:
			if slices.Contains(filters, e) {
				continue
			}
			filters = append(filters, e)
		}
		out = append(out, e)
	}
	// Zero the tail so dropped edges do not pin memory.
	for i := len(out); i < len(n.succ); i++ {
		n.succ[i] = edge{}
	}
	n.succ = out
	n.copyIdx = nil
	if long {
		n.copyIdx = &idx
	}
}
