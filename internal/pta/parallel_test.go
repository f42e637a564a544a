package pta

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mahjong/internal/delta"
	"mahjong/internal/failure"
	"mahjong/internal/faultinject"
	"mahjong/internal/lang"
	"mahjong/internal/synth"
)

// compareResults asserts that two runs over the same shared program
// agree on every label-stable output: reachable methods, per-variable
// points-to sets, the call graph, and cast facts. IDs are deliberately
// not compared — renumbering and scheduling permute them.
func compareResults(t *testing.T, tag string, prog *lang.Program, got, want *Result) {
	t.Helper()
	if g, w := got.NumReachableMethods(), want.NumReachableMethods(); g != w {
		t.Fatalf("%s: reachable methods %d vs %d", tag, g, w)
	}
	if g, w := got.NumCSObjs(), want.NumCSObjs(); g != w {
		t.Fatalf("%s: interned objects %d vs %d", tag, g, w)
	}
	for _, m := range prog.Methods {
		for _, v := range m.Locals {
			g, w := varSiteLabels(got, v), varSiteLabels(want, v)
			if !equalStrings(g, w) {
				t.Fatalf("%s: pts(%s.%s) differ:\n got:  %v\n want: %v", tag, m, v.Name, g, w)
			}
		}
	}
	ge, we := got.CallGraphEdges(), want.CallGraphEdges()
	if len(ge) != len(we) {
		t.Fatalf("%s: %d vs %d call edges", tag, len(ge), len(we))
	}
	for i := range ge {
		if ge[i] != we[i] {
			t.Fatalf("%s: edge %d: %v->%v vs %v->%v", tag, i,
				ge[i].Site.Label(), ge[i].Callee, we[i].Site.Label(), we[i].Callee)
		}
	}
	gc, wc := castSets(got), castSets(want)
	if len(gc) != len(wc) {
		t.Fatalf("%s: %d vs %d reachable casts", tag, len(gc), len(wc))
	}
	for stmt, labels := range gc {
		if !equalStrings(labels, wc[stmt]) {
			t.Fatalf("%s: cast %v incoming differ:\n got:  %v\n want: %v", tag, stmt, labels, wc[stmt])
		}
	}
}

// TestRenumberEquivalence: class-contiguous renumbering must change IDs
// only. The KObj selector produces context-sensitive (tail) objects, so
// both the pure-reserved and the mixed reserved+tail layouts are
// exercised.
func TestRenumberEquivalence(t *testing.T) {
	selectors := []Selector{nil, KObj{K: 2}}
	for seed := int64(1); seed <= 10; seed++ {
		prog := synth.RandomProgram(seed)
		for _, sel := range selectors {
			name := "ci"
			if sel != nil {
				name = sel.Name()
			}
			tag := fmt.Sprintf("seed %d %s", seed, name)
			ren, err := Solve(prog, Options{Selector: sel, Renumber: true})
			if err != nil {
				t.Fatalf("%s: Solve(Renumber): %v", tag, err)
			}
			base, err := Solve(prog, Options{Selector: sel})
			if err != nil {
				t.Fatalf("%s: Solve: %v", tag, err)
			}
			compareResults(t, tag, prog, ren, base)
			if sel == nil {
				// Context-insensitive: every object lands in a reserved
				// slot, so range filters stay enabled throughout.
				if ren.solver.tailObjs != 0 {
					t.Fatalf("%s: %d tail objects under CI", tag, ren.solver.tailObjs)
				}
			}
		}
	}
}

// TestRenumberSpansMatchSubtypeOf checks the structural invariant the
// range fast path relies on: for every span-eligible filter class, the
// interned objects inside [lo,hi) are exactly its subtypes.
func TestRenumberSpansMatchSubtypeOf(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		prog := synth.RandomProgram(seed)
		r, err := Solve(prog, Options{Renumber: true})
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		s := r.solver
		if s.ren == nil {
			t.Fatalf("seed %d: renumbering not built", seed)
		}
		for cid, sp := range s.ren.spans {
			if !sp.ok {
				continue
			}
			cls := prog.Classes[cid]
			if cls.IsInterface || cls.IsArray() {
				t.Fatalf("seed %d: span built for ineligible class %s", seed, cls.Name)
			}
			for _, id32 := range s.internLog {
				id := int(id32)
				if id >= s.ren.reserved {
					continue // tail object, not covered by spans
				}
				in := id >= sp.lo && id < sp.hi
				if want := s.csobjs[id].Obj.Type.SubtypeOf(cls); in != want {
					t.Fatalf("seed %d: span %s [%d,%d): object %d (%s) in=%v SubtypeOf=%v",
						seed, cls.Name, sp.lo, sp.hi, id, s.csobjs[id], in, want)
				}
			}
		}
	}
}

// TestParallelSolverEquivalence is the sharded-engine A/B mirroring the
// NoOpt equivalence test: randomized worker counts (2..GOMAXPROCS+2,
// i.e. deliberately also oversubscribed), with and without renumbering,
// against the sequential solver. The tiny parThreshold forces many
// short phases on the small synthetic programs, maximizing phase
// boundary and cross-shard traffic coverage.
func TestParallelSolverEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	maxW := runtime.GOMAXPROCS(0) + 2
	for seed := int64(1); seed <= 10; seed++ {
		prog := synth.RandomProgram(seed)
		seq, err := Solve(prog, Options{})
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		for trial := 0; trial < 3; trial++ {
			workers := 2 + rng.Intn(maxW-1)
			renumber := trial%2 == 1
			tag := fmt.Sprintf("seed %d workers %d renumber %v", seed, workers, renumber)
			par, err := Solve(prog, Options{Parallel: workers, Renumber: renumber, parThreshold: 1})
			if err != nil {
				t.Fatalf("%s: Solve: %v", tag, err)
			}
			compareResults(t, tag, prog, par, seq)
			if st := par.Stats(); st.ShardWorkers != workers {
				t.Fatalf("%s: stats report %d workers", tag, st.ShardWorkers)
			}
		}
	}
}

// TestParallelContextSensitiveEquivalence repeats the A/B under the
// KObj selector, whose context-sensitive objects take the tail-ID path
// when renumbering is on.
func TestParallelContextSensitiveEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		prog := synth.RandomProgram(seed)
		seq, err := Solve(prog, Options{Selector: KObj{K: 2}})
		if err != nil {
			t.Fatalf("seed %d: Solve: %v", seed, err)
		}
		par, err := Solve(prog, Options{Selector: KObj{K: 2}, Parallel: 3, Renumber: true, parThreshold: 1})
		if err != nil {
			t.Fatalf("seed %d: Solve(parallel): %v", seed, err)
		}
		compareResults(t, fmt.Sprintf("seed %d kobj", seed), prog, par, seq)
	}
}

// TestParallelDeterministicLabels: two parallel runs with the same
// options must agree with each other on every label-stable output even
// though internal scheduling differs.
func TestParallelDeterministicLabels(t *testing.T) {
	prog := synth.RandomProgram(3)
	a, err := Solve(prog, Options{Parallel: 4, parThreshold: 1})
	if err != nil {
		t.Fatalf("run a: %v", err)
	}
	b, err := Solve(prog, Options{Parallel: 4, parThreshold: 1})
	if err != nil {
		t.Fatalf("run b: %v", err)
	}
	compareResults(t, "a-vs-b", prog, a, b)
}

// TestParallelNoOptForcesSequential: NoOpt is the naive reference
// configuration and must disable the engine and the renumbering even
// when both are requested.
func TestParallelNoOptForcesSequential(t *testing.T) {
	prog := synth.RandomProgram(2)
	r, err := Solve(prog, Options{Parallel: 4, Renumber: true, NoOpt: true})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if r.solver.par != nil || r.solver.ren != nil {
		t.Fatalf("NoOpt run built par=%v ren=%v", r.solver.par != nil, r.solver.ren != nil)
	}
	if st := r.Stats(); st.ShardPhases != 0 || st.ShardWorkers != 0 || st.RangeFilterHits != 0 {
		t.Fatalf("NoOpt run reports parallel stats: %+v", st)
	}
}

// TestParallelWorkBudgetAborts: the work budget must abort a parallel
// run with a partial result, exactly like the sequential path — the
// abort sentinel unwinds out of a worker, through the coordinator, to
// run()'s recover.
func TestParallelWorkBudgetAborts(t *testing.T) {
	prog := synth.RandomProgram(5)
	full, err := Solve(prog, Options{Parallel: 3, parThreshold: 1})
	if err != nil {
		t.Fatalf("unbudgeted: %v", err)
	}
	r, err := Solve(prog, Options{Parallel: 3, parThreshold: 1, Budget: Budget{Work: full.Work / 4}})
	if err != nil {
		t.Fatalf("budgeted: %v", err)
	}
	if !r.Aborted {
		t.Fatal("budgeted parallel run did not abort")
	}
}

// TestParallelWorkerPanicDegrades: a panic injected inside a shard
// worker (StageShardSolve) must neither deadlock termination detection
// nor kill the process — it surfaces as a typed *failure.InternalError
// attributed to the worker stage.
func TestParallelWorkerPanicDegrades(t *testing.T) {
	defer faultinject.Clear()
	faultinject.Set(faultinject.OnStage(faultinject.StageShardSolve, faultinject.Once(faultinject.PanicWith("worker died"))))
	prog := synth.RandomProgram(4)
	_, err := Solve(prog, Options{Parallel: 3, parThreshold: 1})
	if err == nil {
		t.Fatal("injected worker panic produced no error")
	}
	var ie *failure.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *failure.InternalError", err)
	}
	if ie.Stage != faultinject.StageShardSolve {
		t.Fatalf("failure stage = %q, want %q", ie.Stage, faultinject.StageShardSolve)
	}
}

// TestParallelWorkerErrorDegrades: an error injected at the worker seam
// behaves like the panic case (typed failure, clean stop), covering the
// Fail-hook arm of the fault matrix.
func TestParallelWorkerErrorDegrades(t *testing.T) {
	defer faultinject.Clear()
	boom := errors.New("injected shard fault")
	faultinject.Set(faultinject.OnStage(faultinject.StageShardSolve, faultinject.Once(faultinject.Fail(boom))))
	prog := synth.RandomProgram(4)
	_, err := Solve(prog, Options{Parallel: 3, parThreshold: 1})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrap of %v", err, boom)
	}
	var ie *failure.InternalError
	if !errors.As(err, &ie) || ie.Stage != faultinject.StageShardSolve {
		t.Fatalf("err = %v, want InternalError at %s", err, faultinject.StageShardSolve)
	}
}

// TestRenumberFaultInjection covers the StageRenumber seam: an injected
// error fails the solve before any work happens, and a subsequent clean
// run succeeds.
func TestRenumberFaultInjection(t *testing.T) {
	defer faultinject.Clear()
	boom := errors.New("renumber fault")
	faultinject.Set(faultinject.OnStage(faultinject.StageRenumber, faultinject.Once(faultinject.Fail(boom))))
	prog := synth.RandomProgram(2)
	if _, err := Solve(prog, Options{Renumber: true}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrap of %v", err, boom)
	}
	if _, err := Solve(prog, Options{Renumber: true}); err != nil {
		t.Fatalf("clean retry failed: %v", err)
	}
}

// TestParallelIncrementalEquivalence: the warm-started incremental
// solve must keep its equivalence guarantee when the re-solve runs the
// parallel engine with renumbering.
func TestParallelIncrementalEquivalence(t *testing.T) {
	base := synth.RandomProgram(7)
	baseRes, err := Solve(base, Options{})
	if err != nil {
		t.Fatalf("base solve: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	next, desc, err := delta.RandomEdit(base, rng)
	if err != nil {
		t.Fatalf("edit: %v", err)
	}
	d, err := delta.Compute(base, next, delta.Options{})
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	warm, st, err := SolveIncremental(next, Options{Parallel: 3, Renumber: true, parThreshold: 1}, baseRes, d)
	if err != nil {
		t.Fatalf("incremental solve (%s): %v", desc, err)
	}
	if !st.Used {
		t.Fatalf("fell back to cold solve: %s", st.Fallback)
	}
	cold, err := Solve(next, Options{})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	compareResults(t, "incremental-parallel", next, warm, cold)
}
