package lint_test

import (
	"strings"
	"testing"

	"mahjong/internal/lint"
	"mahjong/internal/lint/linttest"
)

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, ".", []*lint.Analyzer{lint.CtxFlow}, "./testdata/src/ctxflow")
}

func TestRecoverSeam(t *testing.T) {
	linttest.Run(t, ".", []*lint.Analyzer{lint.RecoverSeam}, "./testdata/src/recoverseam/...")
}

func TestBitsetAlias(t *testing.T) {
	linttest.Run(t, ".", []*lint.Analyzer{lint.BitsetAlias}, "./testdata/src/bitsetalias")
}

func TestMapDeterminism(t *testing.T) {
	linttest.Run(t, ".", []*lint.Analyzer{lint.MapDeterminism}, "./testdata/src/mapdeterminism")
}

func TestAtomicMix(t *testing.T) {
	linttest.Run(t, ".", []*lint.Analyzer{lint.AtomicMix}, "./testdata/src/atomicmix")
}

func TestSlotBalance(t *testing.T) {
	linttest.Run(t, ".", []*lint.Analyzer{lint.SlotBalance}, "./testdata/src/slotbalance")
}

func TestStageHook(t *testing.T) {
	linttest.Run(t, ".", []*lint.Analyzer{lint.StageHook}, "./testdata/src/stagehook/...")
}

func TestStageHookMissingRegistry(t *testing.T) {
	linttest.Run(t, ".", []*lint.Analyzer{lint.StageHook}, "./testdata/src/stagehooknoreg/...")
}

// TestAllowJustification asserts on the //lint:allow mechanism directly: a
// justified allow suppresses the finding on its line (or the line below),
// while an unjustified allow suppresses nothing and is itself reported. The
// fixture cannot express this with want comments — the allow comment is the
// line's one comment — so the diagnostics are checked here.
func TestAllowJustification(t *testing.T) {
	_, diags := linttest.Analyze(t, ".", []*lint.Analyzer{lint.CtxFlow}, "./testdata/src/allow")
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want exactly 2 (unjustified allow + unsuppressed finding):\n%v", len(diags), diags)
	}
	var sawAllow, sawCtxflow bool
	for _, d := range diags {
		switch d.Check {
		case "lint":
			if !strings.Contains(d.Message, "justification") {
				t.Errorf("lint diagnostic does not explain the missing justification: %s", d.Message)
			}
			sawAllow = true
		case "ctxflow":
			sawCtxflow = true
		default:
			t.Errorf("unexpected check %q: %s", d.Check, d.Message)
		}
	}
	if !sawAllow || !sawCtxflow {
		t.Fatalf("want one lint and one ctxflow diagnostic, got %v", diags)
	}
}

// TestAllowUnknownAnalyzer asserts that an //lint:allow naming a
// nonexistent analyzer is reported as a dead suppression instead of
// silently disabling nothing — the typo'd allow must not swallow the
// finding it sat next to, and a justified allow with a correct name
// still suppresses.
func TestAllowUnknownAnalyzer(t *testing.T) {
	_, diags := linttest.Analyze(t, ".", []*lint.Analyzer{lint.CtxFlow}, "./testdata/src/allowunknown")
	var deadAllows, ctxflow int
	for _, d := range diags {
		switch d.Check {
		case "lint":
			if !strings.Contains(d.Message, "unknown analyzer") {
				t.Errorf("lint diagnostic does not name the unknown analyzer: %s", d.Message)
			}
			if !strings.Contains(d.Message, "known:") {
				t.Errorf("lint diagnostic does not list the known analyzers: %s", d.Message)
			}
			deadAllows++
		case "ctxflow":
			ctxflow++
		default:
			t.Errorf("unexpected check %q: %s", d.Check, d.Message)
		}
	}
	if deadAllows != 2 || ctxflow != 1 {
		t.Fatalf("got %d dead-allow and %d ctxflow diagnostics, want 2 and 1:\n%v", deadAllows, ctxflow, diags)
	}
}

// TestAnalyzersWellFormed guards the suite's own registry: every analyzer
// has a name, documentation, and exactly one run hook — the properties the
// driver and the allow mechanism rely on.
func TestAnalyzersWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range lint.Analyzers() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v lacks a name or doc", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %s must set exactly one of Run and RunModule", a.Name)
		}
	}
	for _, want := range []string{
		"ctxflow", "recoverseam", "bitsetalias", "mapdeterminism", "stagehook",
		"atomicmix", "slotbalance",
	} {
		if !seen[want] {
			t.Errorf("analyzer %s missing from Analyzers()", want)
		}
	}
}
