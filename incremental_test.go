package mahjong_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"mahjong"
	"mahjong/internal/delta"
	"mahjong/internal/faultinject"
)

// coldPipeline runs the from-scratch abstraction + main analysis.
func coldPipeline(t *testing.T, prog *mahjong.Program, analysis string) (*mahjong.Abstraction, *mahjong.Report) {
	t.Helper()
	abs, err := mahjong.BuildAbstraction(prog, mahjong.AbstractionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mahjong.Analyze(prog, mahjong.Config{
		Analysis: analysis, Heap: mahjong.HeapMahjong, Abstraction: abs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return abs, rep
}

// sameAbstraction requires pointer-identical MOMs (both sides are built
// over the same next program, so sites are shared).
func sameAbstraction(t *testing.T, tag string, warm, cold *mahjong.Abstraction) {
	t.Helper()
	if warm.Objects != cold.Objects || warm.MergedObjects != cold.MergedObjects || warm.Classes != cold.Classes {
		t.Fatalf("%s: abstraction sizes differ: %d/%d/%d vs %d/%d/%d", tag,
			warm.Objects, warm.MergedObjects, warm.Classes,
			cold.Objects, cold.MergedObjects, cold.Classes)
	}
	if len(warm.MOM) != len(cold.MOM) {
		t.Fatalf("%s: MOM sizes differ: %d vs %d", tag, len(warm.MOM), len(cold.MOM))
	}
	for site, rep := range warm.MOM {
		if cold.MOM[site] != rep {
			t.Fatalf("%s: MOM[%s] = %s, cold has %s", tag, site, rep, cold.MOM[site])
		}
	}
}

// TestIncrementalFacadeEquivalence is the end-to-end A/B gate: chained
// random edits, each solved incrementally against the previous state,
// must yield the exact abstraction and client metrics of a from-scratch
// pipeline — including the downstream context-sensitive main analysis.
func TestIncrementalFacadeEquivalence(t *testing.T) {
	prog, err := mahjong.GenerateBenchmark("luindex")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7)) //nolint:gosec // deterministic test

	_, state, out, err := mahjong.BuildAbstractionDelta(context.Background(), prog, mahjong.AbstractionOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Used || out.Fallback != "no base state" {
		t.Fatalf("cold bootstrap: Used=%v Fallback=%q", out.Used, out.Fallback)
	}

	cur := prog
	for step := 0; step < 4; step++ {
		next, desc, err := delta.RandomEdit(cur, rng)
		if err != nil {
			t.Fatal(err)
		}
		warmAbs, nextState, out, err := mahjong.BuildAbstractionDelta(context.Background(), next, mahjong.AbstractionOptions{}, state)
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, desc, err)
		}
		if !out.Used {
			t.Fatalf("step %d (%s): fell back: %s", step, desc, out.Fallback)
		}
		coldAbs, coldRep := coldPipeline(t, next, "2obj")
		sameAbstraction(t, desc, warmAbs, coldAbs)

		warmRep, err := mahjong.Analyze(next, mahjong.Config{
			Analysis: "2obj", Heap: mahjong.HeapMahjong, Abstraction: warmAbs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if warmRep.Metrics != coldRep.Metrics {
			t.Fatalf("step %d (%s): client metrics differ:\nwarm %+v\ncold %+v",
				step, desc, warmRep.Metrics, coldRep.Metrics)
		}
		t.Logf("step %d (%s): changed=%d/%d seeded=%d facts",
			step, desc, out.ChangedMethods, out.TotalMethods, out.SeededFacts)
		cur, state = next, nextState
	}
}

// TestIncrementalFacadeFaults: injected faults in the diff and seed
// stages must degrade to the cold path — same abstraction, reason
// recorded, no error.
func TestIncrementalFacadeFaults(t *testing.T) {
	defer faultinject.Clear()
	prog, err := mahjong.GenerateBenchmark("antlr")
	if err != nil {
		t.Fatal(err)
	}
	_, state, _, err := mahjong.BuildAbstractionDelta(context.Background(), prog, mahjong.AbstractionOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	next, err := delta.Rewrite(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldAbs, err := mahjong.BuildAbstraction(next, mahjong.AbstractionOptions{})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		stage  string
		reason string
	}{
		{faultinject.StageDelta, "diff failed"},
		{faultinject.StageSeed, "seed preparation failed"},
	}
	for _, tc := range cases {
		t.Run(tc.stage, func(t *testing.T) {
			faultinject.Set(faultinject.OnStage(tc.stage, faultinject.Fail(errors.New("boom"))))
			defer faultinject.Clear()
			abs, _, out, err := mahjong.BuildAbstractionDelta(context.Background(), next, mahjong.AbstractionOptions{}, state)
			if err != nil {
				t.Fatalf("fault escaped as error: %v", err)
			}
			if out.Used || !strings.Contains(out.Fallback, tc.reason) {
				t.Fatalf("Used=%v Fallback=%q, want fallback containing %q", out.Used, out.Fallback, tc.reason)
			}
			sameAbstraction(t, tc.stage, abs, coldAbs)
		})
	}
}

// TestIncrementalFacadeShapeChange: structural edits demote cleanly.
func TestIncrementalFacadeShapeChange(t *testing.T) {
	prog, err := mahjong.GenerateBenchmark("antlr")
	if err != nil {
		t.Fatal(err)
	}
	_, state, _, err := mahjong.BuildAbstractionDelta(context.Background(), prog, mahjong.AbstractionOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	next, err := delta.Rewrite(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	next.NewClass("BrandNew", nil)
	abs, _, out, err := mahjong.BuildAbstractionDelta(context.Background(), next, mahjong.AbstractionOptions{}, state)
	if err != nil {
		t.Fatal(err)
	}
	if out.Used || !strings.Contains(out.Fallback, "shape change") {
		t.Fatalf("Used=%v Fallback=%q", out.Used, out.Fallback)
	}
	coldAbs, err := mahjong.BuildAbstraction(next, mahjong.AbstractionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameAbstraction(t, "shape change", abs, coldAbs)
}

// liveHeap returns the heap bytes still reachable after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDeltaChainLiveHeapFlat: a chain of incremental builds keeps only
// its newest state alive. Each DeltaState must be collectable once its
// successor exists, so the post-GC live heap after 20 chained edits
// stays within a fixed tolerance of the live heap after the first few;
// a state that pins its predecessor grows it by one whole pre-analysis
// per edit.
func TestDeltaChainLiveHeapFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("20 chained incremental builds")
	}
	const (
		edits   = 20
		settle  = 4 // edits before the reference measurement
		slackMB = 8 // tolerated growth over the remaining edits
		slack   = slackMB << 20
	)
	prog, err := mahjong.GenerateBenchmark("luindex")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11)) //nolint:gosec // deterministic test
	_, state, _, err := mahjong.BuildAbstractionDelta(context.Background(), prog, mahjong.AbstractionOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	prog = nil
	var ref uint64
	for i := 1; i <= edits; i++ {
		next, _, err := delta.RandomEdit(state.Prog, rng)
		if err != nil {
			t.Fatal(err)
		}
		_, state, _, err = mahjong.BuildAbstractionDelta(context.Background(), next, mahjong.AbstractionOptions{}, state)
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		if i == settle {
			ref = liveHeap()
		}
	}
	end := liveHeap()
	t.Logf("live heap after edit %d: %.1f MB; after edit %d: %.1f MB", settle, float64(ref)/(1<<20), edits, float64(end)/(1<<20))
	if end > ref+slack {
		t.Fatalf("live heap grew from %.1f MB to %.1f MB over %d chained edits (tolerance %d MB): states pin their predecessors",
			float64(ref)/(1<<20), float64(end)/(1<<20), edits-settle, slackMB)
	}
	runtime.KeepAlive(state)
}
