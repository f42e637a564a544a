package bench

import (
	"os"
	"sort"
	"testing"

	"mahjong/internal/clients"
	"mahjong/internal/core"
	"mahjong/internal/fpg"
	"mahjong/internal/lang"
	"mahjong/internal/pta"
	"mahjong/internal/synth"
)

// The solver's hot-path optimizations (class-indexed filter masks,
// pooled delta sets) must be invisible in every result the rest of the
// pipeline consumes. This file runs the
// naive NoOpt solver over real benchmark programs and diffs everything
// downstream against the default: per-variable points-to sets, client
// metrics, and the Mahjong merged-object counts.
//
// A cheap always-on check covers one program; the full sweep over every
// benchmark is slow and runs only when MAHJONG_SLOWCHECK is set:
//
//	MAHJONG_SLOWCHECK=1 go test ./internal/bench -run SolverEquivalence

func TestSolverEquivalenceLuindex(t *testing.T) {
	checkSolverEquivalence(t, "luindex")
}

func TestSolverEquivalenceAllBenchmarks(t *testing.T) {
	if os.Getenv("MAHJONG_SLOWCHECK") == "" {
		t.Skip("set MAHJONG_SLOWCHECK=1 to run the full A/B sweep")
	}
	for _, name := range synth.ProfileNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			checkSolverEquivalence(t, name)
		})
	}
}

func checkSolverEquivalence(t *testing.T, name string) {
	t.Helper()
	prof, err := synth.ProfileByName(name)
	if err != nil {
		t.Fatalf("profile %s: %v", name, err)
	}
	prog, err := synth.Generate(prof)
	if err != nil {
		t.Fatalf("generate %s: %v", name, err)
	}
	opt, err := pta.Solve(prog, pta.Options{})
	if err != nil {
		t.Fatalf("%s: Solve: %v", name, err)
	}
	t.Run("noopt", func(t *testing.T) {
		checkNoOpt(t, name, prog, opt)
	})
}

func checkNoOpt(t *testing.T, name string, prog *lang.Program, opt *pta.Result) {
	t.Helper()
	naive, err := pta.Solve(prog, pta.Options{NoOpt: true})
	if err != nil {
		t.Fatalf("%s: Solve(NoOpt): %v", name, err)
	}

	// Client metrics summarize the call graph, poly-call sites,
	// may-fail casts and reachability in one comparable struct.
	if gm, wm := clients.Evaluate(opt), clients.Evaluate(naive); gm != wm {
		t.Fatalf("%s: client metrics differ:\n opt:   %+v\n naive: %+v", name, gm, wm)
	}

	// Per-variable points-to sets, compared through stable allocation
	// site labels (Obj/CSObj IDs depend on interning order, which the
	// optimizations may permute).
	for _, m := range prog.Methods {
		for _, v := range m.Locals {
			got, want := siteLabels(opt, v), siteLabels(naive, v)
			if len(got) != len(want) {
				t.Fatalf("%s: pts(%s.%s): %d vs %d objects", name, m, v.Name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: pts(%s.%s) differ at %d: %s vs %s", name, m, v.Name, i, got[i], want[i])
				}
			}
		}
	}

	// The Mahjong heap modeling downstream must see the same field
	// points-to relation: equal FPG sizes and merged-object counts.
	gg, wg := fpg.Build(opt, fpg.Options{}), fpg.Build(naive, fpg.Options{})
	if gg.NumObjects() != wg.NumObjects() {
		t.Fatalf("%s: FPG objects %d vs %d", name, gg.NumObjects(), wg.NumObjects())
	}
	gc, wc := core.Build(gg, core.Options{}), core.Build(wg, core.Options{})
	if gc.NumObjects != wc.NumObjects || gc.NumMerged != wc.NumMerged {
		t.Fatalf("%s: merged objects %d/%d vs %d/%d",
			name, gc.NumMerged, gc.NumObjects, wc.NumMerged, wc.NumObjects)
	}
}

func siteLabels(r *pta.Result, v *lang.Var) []string {
	var out []string
	for _, o := range r.VarObjs(v) {
		out = append(out, o.Rep.Label)
	}
	sort.Strings(out)
	return out
}
