package pta

import (
	"context"
	"testing"
	"unsafe"

	"mahjong/internal/lang"
	"mahjong/internal/synth"
)

// TestNodeSize pins node at 80 bytes: the pending delta joined the node
// when the queued/pending side tables went, and a larger node grows
// every page.
func TestNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(node{}); n != 80 {
		t.Fatalf("node is %d bytes, want 80", n)
	}
}

// TestNodePointerStableAcrossPages: a *node taken before the table grows
// across several page boundaries still addresses the same node.
func TestNodePointerStableAcrossPages(t *testing.T) {
	var tbl nodeTable
	first := tbl.at(tbl.add(nVar, nil))
	first.pts.Add(7)
	mid := -1
	for tbl.len() < 3*nodePageSize+5 {
		id := tbl.add(nInstField, nil)
		if id == nodePageSize+3 {
			mid = id
			tbl.at(id).pts.Add(11)
		}
	}
	midNode := tbl.at(mid)
	for tbl.len() < 5*nodePageSize+1 {
		tbl.add(nStaticField, nil)
	}
	if tbl.at(0) != first || !first.pts.Contains(7) || first.kind != nVar {
		t.Fatal("node 0 moved or changed as the table grew")
	}
	if tbl.at(mid) != midNode || !midNode.pts.Contains(11) || midNode.kind != nInstField {
		t.Fatalf("node %d moved or changed as the table grew", mid)
	}
	if got := len(tbl.pages); got != 6 {
		t.Fatalf("%d nodes in %d pages, want 6", tbl.len(), got)
	}
}

// nodeTestPrograms are small-to-mid programs with real worklist churn.
func nodeTestPrograms(t *testing.T) map[string]*lang.Program {
	t.Helper()
	prof, err := synth.ProfileByName("luindex")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*lang.Program{
		"luindex":  synth.MustGenerate(prof),
		"random/3": synth.RandomProgram(3),
		"random/9": synth.RandomProgram(9),
	}
}

// checkWorklist fails unless every node is on the worklist exactly once
// while its pending delta is non-nil, and never otherwise.
func checkWorklist(t *testing.T, s *solver) {
	t.Helper()
	onList := make([]int, s.nodes.len())
	r := &s.worklist
	for i := 0; i < r.n; i++ {
		onList[r.buf[(r.head+i)&(len(r.buf)-1)]]++
	}
	for id, k := range onList {
		n := s.nodes.at(id)
		want := 0
		if n.pending != nil {
			want = 1
			if n.pending.IsEmpty() {
				t.Fatalf("node %d holds an empty pending delta", id)
			}
		}
		if k != want {
			t.Fatalf("node %d is on the worklist %d times, pending delta non-nil: %v", id, k, n.pending != nil)
		}
	}
}

// TestWorklistMatchesPendingDeltas steps the solver's loop by hand and
// checks the worklist invariant before every pop.
func TestWorklistMatchesPendingDeltas(t *testing.T) {
	for name, prog := range nodeTestPrograms(t) {
		for _, sel := range []Selector{CI{}, KObj{K: 2}} {
			s := newSolver(prog, Options{Heap: NewAllocSiteModel(), Selector: sel})
			s.makeReachable(s.ctxt.Empty(), prog.Entry)
			steps := 0
			for {
				checkWorklist(t, s)
				id, ok := s.worklist.pop()
				if !ok {
					break
				}
				s.propagate(s.nodes.at(id))
				steps++
			}
			if steps < 10 {
				t.Fatalf("%s %s: only %d worklist steps", name, sel.Name(), steps)
			}
		}
	}
}

// assertNoPending fails when a node of s still holds a pending delta or
// the worklist still holds a node.
func assertNoPending(t *testing.T, tag string, s *solver) {
	t.Helper()
	for id := range s.nodes.len() {
		if s.nodes.at(id).pending != nil {
			t.Fatalf("%s: node %d holds a pending delta after the solve", tag, id)
		}
	}
	if s.worklist.n != 0 {
		t.Fatalf("%s: %d nodes left on the worklist", tag, s.worklist.n)
	}
}

// TestNoPendingDeltaAfterSolve: a finished, a work-budget-aborted and a
// cancelled solve all leave no pending delta behind, so a kept partial
// Result retains none.
func TestNoPendingDeltaAfterSolve(t *testing.T) {
	prog := nodeTestPrograms(t)["luindex"]
	full, err := Solve(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertNoPending(t, "finished", full.solver)

	part, err := Solve(prog, Options{Budget: Budget{Work: full.Work / 3}})
	if err != nil || !part.Aborted {
		t.Fatalf("budgeted solve: aborted=%v err=%v, want a partial result", part != nil && part.Aborted, err)
	}
	assertNoPending(t, "budget-aborted", part.solver)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := newSolver(prog, Options{Heap: NewAllocSiteModel(), Selector: CI{}})
	s.ctx = ctx
	if _, cancelled, _ := s.run(); !cancelled {
		t.Fatal("solve under a cancelled context was not interrupted")
	}
	if s.work >= full.Work {
		t.Fatalf("cancelled solve did all %d work units", s.work)
	}
	assertNoPending(t, "cancelled", s)
}
