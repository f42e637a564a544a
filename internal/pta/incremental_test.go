package pta

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mahjong/internal/delta"
	"mahjong/internal/faultinject"
	"mahjong/internal/lang"
	"mahjong/internal/parser"
	"mahjong/internal/synth"
)

// assertSameAnalysis asserts that two results over the SAME program
// object agree on every fact, compared through shared lang identities:
// the object table (as labels), the reachable-method set, per-variable
// points-to sets (as allocation-site labels), the call graph, and cast
// facts. Object and node IDs are not compared. It gates the warm vs
// cold incremental A/B axis.
func assertSameAnalysis(t *testing.T, tag string, prog *lang.Program, got, want *Result) {
	t.Helper()
	for _, m := range prog.Methods {
		if g, w := got.ReachableMethod(m), want.ReachableMethod(m); g != w {
			t.Fatalf("%s: %s reachable %t vs %t", tag, m, g, w)
		}
	}
	if g, w := csObjLabels(got), csObjLabels(want); !equalStrings(g, w) {
		t.Fatalf("%s: object tables differ (%d vs %d objects): only in got %v, only in want %v",
			tag, len(g), len(w), missingFrom(g, w), missingFrom(w, g))
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
			t.Fatalf("%s: call edge %d: %v->%v vs %v->%v", tag, i,
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

// csObjLabels returns the labels of r's object table, sorted.
func csObjLabels(r *Result) []string {
	out := make([]string, 0, r.NumCSObjs())
	for _, o := range r.CSObjs() {
		out = append(out, o.String())
	}
	sort.Strings(out)
	return out
}

// missingFrom returns the labels of a that b lacks; both are sorted.
func missingFrom(a, b []string) []string {
	var out []string
	for _, l := range a {
		if i := sort.SearchStrings(b, l); i == len(b) || b[i] != l {
			out = append(out, l)
		}
	}
	return out
}

// incrementalSubjects returns the equivalence sweep's subjects: random
// programs plus a generated benchmark, per the acceptance criterion of
// >= 3 synthetic subjects.
func incrementalSubjects(t *testing.T) []struct {
	name string
	prog *lang.Program
} {
	t.Helper()
	luindex, err := synth.ProfileByName("luindex")
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	gen, err := synth.Generate(luindex)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return []struct {
		name string
		prog *lang.Program
	}{
		{"rand1", synth.RandomProgram(1)},
		{"rand7", synth.RandomProgram(7)},
		{"rand13", synth.RandomProgram(13)},
		{"luindex", gen},
	}
}

// TestIncrementalEquivalenceRandomEdits is the A/B gate: chains of
// random body-only edits, each step solved warm (seeded from the
// previous step's result — itself possibly warm) and cold, must agree
// exactly. Its edits rarely taint a store's right-hand side while
// leaving the base untainted; TestIncrementalStoreRHSRandomEdits sweeps
// that case.
func TestIncrementalEquivalenceRandomEdits(t *testing.T) {
	const steps = 5
	for _, sub := range incrementalSubjects(t) {
		rng := rand.New(rand.NewSource(42)) //nolint:gosec // deterministic test sweep
		cur := sub.prog
		curRes, err := Solve(cur, Options{})
		if err != nil {
			t.Fatalf("%s: cold base solve: %v", sub.name, err)
		}
		for i := 0; i < steps; i++ {
			next, desc, err := delta.RandomEdit(cur, rng)
			if err != nil {
				t.Fatalf("%s step %d: edit: %v", sub.name, i, err)
			}
			d, err := delta.Compute(cur, next, delta.Options{})
			if err != nil {
				t.Fatalf("%s step %d: diff: %v", sub.name, i, err)
			}
			if !d.BodyOnly {
				t.Fatalf("%s step %d (%s): edit not body-only: %s", sub.name, i, desc, d.Reason)
			}
			warm, st, err := SolveIncremental(next, Options{}, curRes, d)
			if err != nil {
				t.Fatalf("%s step %d (%s): incremental solve: %v", sub.name, i, desc, err)
			}
			if !st.Used {
				t.Fatalf("%s step %d (%s): fell back to cold solve: %s", sub.name, i, desc, st.Fallback)
			}
			cold, err := Solve(next, Options{})
			if err != nil {
				t.Fatalf("%s step %d (%s): cold solve: %v", sub.name, i, desc, err)
			}
			assertSameAnalysis(t, fmt.Sprintf("%s step %d (%s)", sub.name, i, desc), next, warm, cold)
			cur, curRes = next, warm
		}
	}
}

// TestIncrementalDropsObjectsOfUnreachableMethods pins a warm-path
// defect: helper allocates o and loads o.f with no store, so the field
// node of o.f is never tainted. When the edit drops helper's only call,
// seeding that field node must not bring helper's object into the new
// solve: the cold solve never allocates it.
func TestIncrementalDropsObjectsOfUnreachableMethods(t *testing.T) {
	const src = `
class Box { field f: Box }
class Main {
  static method helper(): void {
    var o: Box
    var x: Box
    o = new Box
    x = o.f
    return
  }
  static method main(): void {
    var b: Box
    b = new Box
    %s
    return
  }
}
entry Main.main/0
`
	prog, err := parser.Parse("base.ir", fmt.Sprintf(src, "Main.helper()"))
	if err != nil {
		t.Fatal(err)
	}
	next, err := parser.Parse("edit.ir", fmt.Sprintf(src, ""))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Solve(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := delta.Compute(prog, next, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, st, err := SolveIncremental(next, Options{}, base, d)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Used {
		t.Fatalf("fell back to a cold solve: %s", st.Fallback)
	}
	cold, err := Solve(next, Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameAnalysis(t, "drop helper call", next, warm, cold)
}

// TestIncrementalEquivalenceFallbacks checks that every ineligible
// configuration degrades to a from-scratch solve with a recorded
// reason — and still returns the exact cold result.
func TestIncrementalEquivalenceFallbacks(t *testing.T) {
	prog := synth.RandomProgram(3)
	base, err := Solve(prog, Options{})
	if err != nil {
		t.Fatalf("base solve: %v", err)
	}
	identical, err := delta.Rewrite(prog, nil)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	d, err := delta.Compute(prog, identical, delta.Options{})
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if !d.BodyOnly || len(d.Changed) != 0 {
		t.Fatalf("identity rewrite diffs: BodyOnly=%v changed=%d", d.BodyOnly, len(d.Changed))
	}

	check := func(tag string, res *Result, st *IncrementalStats, err error, wantReason string, coldOpts Options) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if st.Used {
			t.Fatalf("%s: expected fallback, got warm solve", tag)
		}
		if st.Fallback == "" || wantReason != "" && !containsStr(st.Fallback, wantReason) {
			t.Fatalf("%s: fallback reason %q, want substring %q", tag, st.Fallback, wantReason)
		}
		cold, err := Solve(identical, coldOpts)
		if err != nil {
			t.Fatalf("%s: cold: %v", tag, err)
		}
		assertSameAnalysis(t, tag, identical, res, cold)
	}

	// No base result at all.
	res, st, err := SolveIncremental(identical, Options{}, nil, d)
	check("nil base", res, st, err, "no base result", Options{})

	// Shape change: the edited program grew a class.
	shaped, err := delta.Rewrite(prog, nil)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	shaped.NewClass("ExtraClass", nil)
	ds, err := delta.Compute(prog, shaped, delta.Options{})
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if ds.BodyOnly {
		t.Fatal("class addition not detected as shape change")
	}
	res, st, err = SolveIncremental(shaped, Options{}, base, ds)
	if err != nil {
		t.Fatalf("shape change: %v", err)
	}
	if st.Used || !containsStr(st.Fallback, "shape change") {
		t.Fatalf("shape change: Used=%v Fallback=%q", st.Used, st.Fallback)
	}

	// Context-sensitive selector is ineligible.
	res, st, err = SolveIncremental(identical, Options{Selector: KObj{K: 2}}, base, d)
	check("kobj selector", res, st, err, "context-sensitive", Options{Selector: KObj{K: 2}})

	// Non-alloc-site heap model is ineligible.
	res, st, err = SolveIncremental(identical, Options{Heap: NewAllocTypeModel()}, base, d)
	check("alloc-type heap", res, st, err, "not alloc-site", Options{Heap: NewAllocTypeModel()})

	// A partial (work-budget aborted) base retains no usable state.
	partial, err := Solve(prog, Options{Budget: Budget{Work: 1}})
	if err != nil {
		t.Fatalf("partial solve: %v", err)
	}
	if !partial.Aborted {
		t.Fatal("tiny budget did not abort")
	}
	res, st, err = SolveIncremental(identical, Options{}, partial, d)
	check("aborted base", res, st, err, "partial", Options{})
}

// TestIncrementalEquivalenceSeedFault injects a fault at the pta.seed
// seam: the incremental path must degrade to a cold solve — never fail
// the analysis — and record the injection in the fallback reason.
func TestIncrementalEquivalenceSeedFault(t *testing.T) {
	defer faultinject.Clear()
	prog := synth.RandomProgram(5)
	base, err := Solve(prog, Options{})
	if err != nil {
		t.Fatalf("base solve: %v", err)
	}
	rng := rand.New(rand.NewSource(9)) //nolint:gosec // deterministic test
	next, desc, err := delta.RandomEdit(prog, rng)
	if err != nil {
		t.Fatalf("edit: %v", err)
	}
	d, err := delta.Compute(prog, next, delta.Options{})
	if err != nil {
		t.Fatalf("diff: %v", err)
	}

	for _, mode := range []struct {
		name string
		hook faultinject.Hook
	}{
		{"error", faultinject.Fail(errors.New("injected seed fault"))},
		{"panic", faultinject.PanicWith("injected seed bug")},
	} {
		faultinject.Set(faultinject.OnStage(faultinject.StageSeed, mode.hook))
		warm, st, err := SolveIncremental(next, Options{}, base, d)
		faultinject.Clear()
		if err != nil {
			t.Fatalf("%s (%s): incremental solve failed hard: %v", mode.name, desc, err)
		}
		if st.Used || !containsStr(st.Fallback, "seed preparation failed") {
			t.Fatalf("%s: Used=%v Fallback=%q", mode.name, st.Used, st.Fallback)
		}
		cold, err := Solve(next, Options{})
		if err != nil {
			t.Fatalf("cold: %v", err)
		}
		assertSameAnalysis(t, "seed fault "+mode.name, next, warm, cold)
	}
}

// TestIncrementalReplayWorkReduction is the deterministic speedup gate
// of the warm solve: after a one-method edit on a benchmark-scale
// subject, the warm solve's propagation work counter must come in at
// <= 1/5 of the cold solve's. Work is a deterministic counter, so this
// cannot flake the way wall-clock ratios do.
func TestIncrementalReplayWorkReduction(t *testing.T) {
	prof, err := synth.ProfileByName("checkstyle")
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	prog, err := synth.Generate(prof)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	base, err := Solve(prog, Options{})
	if err != nil {
		t.Fatalf("base solve: %v", err)
	}

	// One-method edit: prepend a semantically inert self-copy to the
	// first concrete instance method, changing exactly one body hash.
	var target *lang.Method
	for _, c := range prog.Classes {
		for _, m := range c.DeclaredMethods {
			if !m.IsAbstract && m != prog.Entry && m.This != nil {
				target = m
				break
			}
		}
		if target != nil {
			break
		}
	}
	if target == nil {
		t.Fatal("no editable method")
	}
	next, err := delta.Rewrite(prog, func(m *lang.Method, stmts []lang.Stmt) []lang.Stmt {
		if m != target {
			return stmts
		}
		return append([]lang.Stmt{&lang.Copy{LHS: m.This, RHS: m.This}}, stmts...)
	})
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	d, err := delta.Compute(prog, next, delta.Options{})
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if !d.BodyOnly || len(d.Changed) != 1 {
		t.Fatalf("expected exactly one changed method, got BodyOnly=%v changed=%d", d.BodyOnly, len(d.Changed))
	}

	warm, st, err := SolveIncremental(next, Options{}, base, d)
	if err != nil {
		t.Fatalf("incremental solve: %v", err)
	}
	if !st.Used {
		t.Fatalf("fell back: %s", st.Fallback)
	}
	cold, err := Solve(next, Options{})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	assertSameAnalysis(t, "one-method edit on "+prof.Name, next, warm, cold)
	if warm.Work*5 > cold.Work {
		t.Fatalf("warm solve did %d work vs cold %d: less than the required 5x reduction (stats %+v)",
			warm.Work, cold.Work, st)
	}
	t.Logf("one-method edit on %s: cold work %d, warm work %d (%.1fx), seeded %d facts into %d vars / %d fields / %d statics, %d/%d nodes tainted",
		prof.Name, cold.Work, warm.Work, float64(cold.Work)/float64(warm.Work),
		st.SeededFacts, st.SeededVars, st.SeededFields, st.SeededStatics, st.TaintedNodes, st.BaseNodes)
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
