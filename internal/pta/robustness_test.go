package pta

import (
	"context"
	"errors"
	"testing"

	"mahjong/internal/budget"
)

// Meter exhaustion is a hard error wrapping budget.ErrExhausted — not
// the legacy Budget.Work abort, which returns a partial result.
func TestSolveContextMeterFactsExhaustion(t *testing.T) {
	meter := budget.NewMeter(budget.Limits{Facts: 10})
	res, err := SolveContext(context.Background(), bigProgram(t), Options{Meter: meter})
	if !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("want error wrapping budget.ErrExhausted, got %v", err)
	}
	if res != nil {
		t.Fatal("exhausted solve must not return a partial Result")
	}
}

func TestSolveContextMeterWordsExhaustion(t *testing.T) {
	meter := budget.NewMeter(budget.Limits{BitsetWords: 2})
	_, err := SolveContext(context.Background(), bigProgram(t), Options{Meter: meter})
	if !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("want error wrapping budget.ErrExhausted, got %v", err)
	}
}

// After an exhausted run, a fresh unbudgeted solve of the same program
// must behave exactly as if the failed run never happened: all solver
// state is per-run, nothing pooled leaks across.
func TestSolveCleanAfterMeterExhaustion(t *testing.T) {
	prog := bigProgram(t)
	want, err := Solve(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	meter := budget.NewMeter(budget.Limits{Facts: 25})
	if _, err := SolveContext(context.Background(), prog, Options{Meter: meter}); !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("want exhaustion, got %v", err)
	}
	got, err := SolveContext(context.Background(), prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Work != want.Work {
		t.Fatalf("solve after exhausted run diverged: work %d, want %d", got.Work, want.Work)
	}
}

// The word budget is cumulative: a solve charges every word its
// points-to sets grow and never credits any back, so after one fresh
// solve the meter holds exactly the words those sets occupy.
func TestMeterWordsCountGrownWords(t *testing.T) {
	meter := budget.NewMeter(budget.Limits{BitsetWords: 1 << 40})
	res, err := SolveContext(context.Background(), bigProgram(t), Options{Meter: meter})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for id := range res.solver.nodes.len() {
		want += res.solver.nodes.at(id).pts.Words()
	}
	if _, words, _ := meter.Usage(); words != int64(want) || want == 0 {
		t.Fatalf("meter words %d, points-to sets hold %d words", words, want)
	}
}
