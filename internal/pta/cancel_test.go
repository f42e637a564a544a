package pta

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mahjong/internal/lang"
)

// bigProgram builds a program whose solve performs well over 4096 work
// units (the solver's cancellation-check stride): allocs copies of many
// objects down a long chain of variables.
func bigProgram(t testing.TB) *lang.Program {
	t.Helper()
	p := lang.NewProgram()
	a := p.NewClass("A", nil)
	mainCls := p.NewClass("Main", nil)
	m := mainCls.NewMethod("main", true, nil, nil)
	const allocs, chain = 64, 256
	v := m.NewVar("v0", a)
	for i := 0; i < allocs; i++ {
		m.AddAlloc(v, a)
	}
	prev := v
	for i := 1; i <= chain; i++ {
		next := m.NewVar(fmt.Sprintf("v%d", i), a)
		m.AddCopy(next, prev)
		prev = next
	}
	m.AddReturn(nil)
	p.SetEntry(m)
	if err := p.Validate(); err != nil {
		t.Fatalf("bigProgram invalid: %v", err)
	}
	return p
}

func TestSolveContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveContext(ctx, bigProgram(t), Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
}

func TestSolveContextExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := SolveContext(ctx, bigProgram(t), Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want wrapped context.DeadlineExceeded, got %v", err)
	}
}

// flipCtx reports no error for its first two Err calls (the pre-run
// check plus one in-loop check), then reports cancellation — a
// deterministic stand-in for a context cancelled mid-solve. Per the
// context.Context contract it advertises cancellability with a non-nil
// Done channel (the solver uses Done() != nil to decide whether the
// context can ever fire and is worth polling).
type flipCtx struct {
	context.Context
	calls int
	done  chan struct{}
}

func (c *flipCtx) Done() <-chan struct{} { return c.done }

func (c *flipCtx) Err() error {
	c.calls++
	if c.calls > 2 {
		return context.Canceled
	}
	return nil
}

// The cancelled run unwinds through the sentinel panic; the same program
// must then solve to the same result, and the failed run must leak no
// goroutines.
func TestSolveContextMidRunCancellation(t *testing.T) {
	prog := bigProgram(t)
	want, err := Solve(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	fc := &flipCtx{Context: context.Background(), done: make(chan struct{})}
	_, err = SolveContext(fc, prog, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled mid-run, got %v", err)
	}
	if fc.calls <= 2 {
		t.Fatalf("solver never reached the worklist-loop cancellation check (%d Err calls)", fc.calls)
	}
	got, err := SolveContext(context.Background(), prog, Options{})
	if err != nil {
		t.Fatalf("solve after cancelled run failed: %v", err)
	}
	if got.Work != want.Work {
		t.Fatalf("solve after cancelled run diverged: work %d, want %d", got.Work, want.Work)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked across cancelled solve: %d before, %d after", before, n)
	}
}

// uncomparableCtx has an uncomparable dynamic type (a struct carrying a
// slice, passed by value). The pre-fix solver compared
// ctx != context.Background(), and interface comparison PANICS when the
// dynamic type is uncomparable — an arbitrary caller-supplied context
// could crash the solve before it started.
type uncomparableCtx struct {
	context.Context
	_ []int
}

func TestSolveContextUncomparableImplementation(t *testing.T) {
	prog := bigProgram(t)
	res, err := SolveContext(uncomparableCtx{Context: context.Background()}, prog, Options{})
	if err != nil {
		t.Fatalf("solve under an uncomparable context: %v (the old identity comparison panicked here)", err)
	}
	if res.Work == 0 {
		t.Fatal("solve did no work")
	}
}

// A value-carrying child of context.Background is semantically background:
// it can never be cancelled and carries no deadline. The old identity
// comparison misclassified it as cancellable; the Done()==nil check must
// treat it exactly like Background.
func TestSolveContextValueOnlyChildIsBackground(t *testing.T) {
	prog := bigProgram(t)
	type key struct{}
	want, err := SolveContext(context.Background(), prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveContext(context.WithValue(context.Background(), key{}, "v"), prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Work != want.Work || got.Aborted != want.Aborted {
		t.Fatalf("value-only child diverged from Background: work %d vs %d", got.Work, want.Work)
	}
}

func TestSolveContextBackgroundUnchanged(t *testing.T) {
	prog := bigProgram(t)
	want, err := Solve(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveContext(context.Background(), prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Work != want.Work || got.Aborted != want.Aborted {
		t.Fatalf("SolveContext(Background) diverged: work %d vs %d", got.Work, want.Work)
	}
}

// Budget semantics must survive the refactor: overruns still return a
// partial result with Aborted=true and a nil error, not a ctx error.
func TestSolveContextBudgetStillAborts(t *testing.T) {
	r, err := SolveContext(context.Background(), bigProgram(t), Options{Budget: Budget{Work: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Aborted {
		t.Fatal("want Aborted=true on budget overrun")
	}
}
