package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"mahjong"
	"mahjong/internal/lang"
	"mahjong/internal/pta"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadsMinimal runs every workload for one round, untraced and
// traced, and requires every declared metric with its unit, no failed
// operation and every output check passing.
func TestWorkloadsMinimal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := declared(t)
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				cfg := runConfig{traced: traced, setupReps: 1, samples: 50}
				res, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.attempted == 0 || res.failed != 0 || !res.correct() {
					t.Errorf("attempted %d failed %d problems %v", res.attempted, res.failed, res.problems)
				}
				want := endToEnd
				if traced {
					want = perLayer
					if name == "edit-loop" {
						want = map[string]string{}
						for m, unit := range perLayer {
							want[m] = unit
						}
						for _, m := range warmLayerNames {
							want[m.name] = m.unit
						}
					}
				}
				if len(res.metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.metrics), len(want))
				}
				for m, unit := range want {
					if got, ok := res.metrics[m]; !ok || got.Unit != unit {
						t.Errorf("metric %s = %+v, want unit %q", m, got, unit)
					}
				}
			})
		}
	}
}

// tinyIR has three A objects: a1 and a3 reach a B through f, a2 a C,
// so only a1 and a3 are type-consistent. The two B objects have no
// fields and are type-consistent.
const tinyIR = `class t.B {
}

class t.C {
}

class t.A {
  field f: java.lang.Object
}

class t.Main {
  static method main(): void {
    var a1: t.A
    var a2: t.A
    var a3: t.A
    var b1: t.B
    var b2: t.B
    var c: t.C
    a1 = new t.A
    a2 = new t.A
    a3 = new t.A
    b1 = new t.B
    b2 = new t.B
    c = new t.C
    a1.f = b1
    a2.f = c
    a3.f = b2
    return
  }
}

entry t.Main.main/0
`

func tinyProgram(t *testing.T) (*lang.Program, *pta.Result, map[string]*lang.AllocSite) {
	t.Helper()
	prog, err := mahjong.ParseProgram("tiny", tinyIR)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := pta.SolveContext(context.Background(), prog, pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string]*lang.AllocSite{}
	byType := map[string]int{}
	for _, s := range prog.Sites {
		name := strings.TrimPrefix(s.Type.Name, "t.")
		byType[name]++
		sites[strings.ToLower(name)+string(rune('0'+byType[name]))] = s
	}
	return prog, pre, sites
}

func identity(prog *lang.Program) map[*lang.AllocSite]*lang.AllocSite {
	mom := map[*lang.AllocSite]*lang.AllocSite{}
	for _, s := range prog.Sites {
		mom[s] = s
	}
	return mom
}

func TestOracleAcceptsProgramMOM(t *testing.T) {
	prog, pre, sites := tinyProgram(t)
	abs, err := mahjong.BuildAbstraction(prog, mahjong.AbstractionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if abs.MOM[sites["a3"]] != abs.MOM[sites["a1"]] || abs.MOM[sites["a2"]] == abs.MOM[sites["a1"]] {
		t.Fatalf("heap modeler merged unexpectedly: %v", abs.MOM)
	}
	rep := checkMOM(pre, abs.MOM, 1, 50)
	if len(rep.Violations) != 0 || rep.MergedPairs != 2 || rep.SampledPairs == 0 {
		t.Fatalf("oracle on the program's MOM: %+v", rep)
	}
}

// TestOracleRejectsInconsistentMerge hands the oracle a MOM that merges
// two type-inconsistent sites; it must object.
func TestOracleRejectsInconsistentMerge(t *testing.T) {
	prog, pre, sites := tinyProgram(t)
	mom := identity(prog)
	mom[sites["a2"]] = sites["a1"]
	rep := checkMOM(pre, mom, 1, 0)
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "not type-consistent") {
		t.Fatalf("want one consistency violation, got %+v", rep)
	}
}

// TestOracleRejectsMissedMerge hands the oracle a MOM that leaves two
// type-consistent sites apart; the sampled direction must object.
func TestOracleRejectsMissedMerge(t *testing.T) {
	prog, pre, _ := tinyProgram(t)
	rep := checkMOM(pre, identity(prog), 1, 50)
	if len(rep.Violations) == 0 {
		t.Fatalf("identity MOM accepted: %+v", rep)
	}
	for _, v := range rep.Violations {
		if !strings.Contains(v, "were not merged") {
			t.Errorf("unexpected violation %q", v)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i)
	}
	if v, pct := tail(xs); v != 30 || pct != 75 {
		t.Fatalf("tail of 1..40 = %v at p%v, want 30 at p75", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 36 || pct != 0 {
		t.Fatalf("tail of 5 samples = %v at p%v, want the minimum at p0", v, pct)
	}
}
