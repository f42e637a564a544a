package scenario

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mahjong"
	"mahjong/internal/clients"
	"mahjong/internal/lang"
	"mahjong/internal/parser"
)

// artifactDir is where shrunken reproducers land when the corpus
// differential fails. CI sets MAHJONG_SCENARIO_ARTIFACTS to a workspace
// path and uploads it; locally they go under the system temp dir.
func artifactDir(t *testing.T) string {
	t.Helper()
	dir := os.Getenv("MAHJONG_SCENARIO_ARTIFACTS")
	if dir == "" {
		dir = filepath.Join(os.TempDir(), "mahjong-scenario-artifacts")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCorpusDifferential is the main acceptance check for the harness:
// every committed corpus program must pass both A/B axes with zero
// divergences. On failure, each divergence is shrunk to a minimal
// reproducer and written to the artifact directory so CI preserves it.
func TestCorpusDifferential(t *testing.T) {
	gens, man, err := LoadCorpus(filepath.Join("..", "..", "testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) < 2*len(CorpusWants()) {
		t.Fatalf("corpus has %d programs, want %d", len(gens), 2*len(CorpusWants()))
	}
	if man.Generator != "synthgen -search" {
		t.Fatalf("manifest generator = %q", man.Generator)
	}
	ctx := context.Background()
	axes := StandardAxes()
	for _, g := range gens {
		g := g
		t.Run(g.Entry.Name, func(t *testing.T) {
			divs, err := RunAndShrink(ctx, g.Prog, axes, ShrinkOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range divs {
				dir := artifactDir(t)
				file := filepath.Join(dir, fmt.Sprintf("%s-%s.ir", g.Entry.Name, d.Axis))
				if werr := os.WriteFile(file, []byte(d.ReproducerIR), 0o644); werr != nil {
					t.Logf("could not write reproducer: %v", werr)
				} else {
					t.Logf("shrunken reproducer written to %s", file)
				}
				t.Errorf("axis %s diverged: %s (reproducer: %d stmts)",
					d.Axis, d.Detail, d.Reproducer.Stats().Stmts)
			}
		})
	}
}

// fakeAxis injects a deterministic "divergence": it fires whenever the
// program still has a tainted sink under the plain allocation-site
// analysis. The taint motif is a handful of statements, so the shrinker
// must be able to cut everything else away.
type fakeAxis struct{}

func (fakeAxis) Name() string { return "injected" }

func (fakeAxis) Check(ctx context.Context, prog *lang.Program) (string, error) {
	rep, err := mahjong.AnalyzeContext(ctx, prog, mahjong.Config{Analysis: "ci", Heap: mahjong.HeapAllocSite})
	if err != nil {
		return "", nil // unanalyzable candidates are uninteresting, not divergent
	}
	if len(clients.TaintedSinks(rep.Result())) > 0 {
		return "tainted sink reached", nil
	}
	return "", nil
}

// TestInjectedDivergenceShrinks is the shrinker acceptance check: an
// injected divergence on a full searched program must come back as a
// reproducer of at most 20 statements.
func TestInjectedDivergenceShrinks(t *testing.T) {
	f, err := Search(Want{FieldDepth: 6, PolyContainers: 2, CallGraphFanout: 12}, Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	start := f.Est.Stmts
	divs, err := RunAndShrink(context.Background(), f.Prog, []Axis{fakeAxis{}}, ShrinkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(divs) != 1 {
		t.Fatalf("injected axis produced %d divergences, want 1", len(divs))
	}
	d := divs[0]
	if d.Reproducer == nil {
		t.Fatal("no reproducer attached")
	}
	got := d.Reproducer.Stats().Stmts
	if got > 20 {
		t.Fatalf("reproducer has %d statements, want <= 20 (started from %d):\n%s", got, start, d.ReproducerIR)
	}
	if got >= start {
		t.Fatalf("shrinker made no progress: %d -> %d statements", start, got)
	}
	// The reproducer must itself still trip the axis.
	detail, err := fakeAxis{}.Check(context.Background(), d.Reproducer)
	if err != nil || detail == "" {
		t.Fatalf("reproducer does not reproduce: detail=%q err=%v", detail, err)
	}
}

// TestShrinkRespectsPredicate: Shrink never returns a program failing
// the predicate, and its output always re-validates.
func TestShrinkRespectsPredicate(t *testing.T) {
	s := Spec{FieldDepth: 4, DeepPaths: 1, PolyContainers: 1, ContainerTypes: 3, Fillers: 3}
	p, err := s.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// Keep programs that still mention the deep-chain class.
	keep := func(q *lang.Program) bool {
		for _, c := range q.Classes {
			if c.Name == "scn.D0_0" {
				return true
			}
		}
		return false
	}
	small := Shrink(p, keep, ShrinkOptions{MaxChecks: 500})
	if !keep(small) {
		t.Fatal("shrunk program violates the predicate")
	}
	if small.Stats().Stmts > p.Stats().Stmts {
		t.Fatal("shrinker grew the program")
	}
	if _, err := parser.Parse("check", parser.Print(small)); err != nil {
		t.Fatalf("shrunk program does not round-trip: %v", err)
	}
}

// TestRunDifferentialOnSuite spot-checks the axes on two real suite
// benchmarks, not just searched programs.
func TestRunDifferentialOnSuite(t *testing.T) {
	for _, name := range []string{"luindex", "antlr"} {
		prog, err := mahjong.GenerateBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		divs, err := RunDifferential(context.Background(), prog, StandardAxes())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range divs {
			t.Errorf("%s: axis %s diverged: %s", name, d.Axis, d.Detail)
		}
	}
}
