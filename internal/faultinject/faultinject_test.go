package faultinject

import (
	"errors"
	"testing"

	"mahjong/internal/failure"
)

func TestFireWithoutHookIsNil(t *testing.T) {
	Clear()
	if err := Fire(StageSolve); err != nil {
		t.Fatalf("no hook installed, got %v", err)
	}
	data := []byte("abc")
	if got := Mutate(StageCacheLoad, data); string(got) != "abc" {
		t.Fatalf("no mutator installed, got %q", got)
	}
}

func TestSetAndClear(t *testing.T) {
	t.Cleanup(Clear)
	boom := errors.New("boom")
	Set(Fail(boom))
	if err := Fire(StageFPG); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	Clear()
	if err := Fire(StageFPG); err != nil {
		t.Fatalf("hook survived Clear: %v", err)
	}
}

func TestOnStageScopesToOneSeam(t *testing.T) {
	t.Cleanup(Clear)
	boom := errors.New("boom")
	Set(OnStage(StageModel, Fail(boom)))
	if err := Fire(StageSolve); err != nil {
		t.Fatalf("other seam affected: %v", err)
	}
	if err := Fire(StageModel); !errors.Is(err, boom) {
		t.Fatalf("target seam unaffected: %v", err)
	}
}

// Times counts EVERY Fire call, not just matching ones — so to fault a
// stage exactly once, the counter must sit inside the stage filter:
// OnStage(stage, Once(h)). The other nesting, Once(OnStage(stage, h)),
// spends its single shot on whichever seam fires first (in mahjongd
// that is always server.job) and never reaches the target. This test
// pins down both orders so the trap stays documented.
func TestCombinatorNestingOrder(t *testing.T) {
	t.Cleanup(Clear)
	boom := errors.New("boom")

	Set(OnStage(StageEquiv, Once(Fail(boom))))
	if err := Fire(StageJob); err != nil {
		t.Fatalf("unrelated seam consumed the fault: %v", err)
	}
	if err := Fire(StageEquiv); !errors.Is(err, boom) {
		t.Fatalf("first matching fire should fault, got %v", err)
	}
	if err := Fire(StageEquiv); err != nil {
		t.Fatalf("Once fired twice: %v", err)
	}

	Set(Once(OnStage(StageEquiv, Fail(boom))))
	if err := Fire(StageJob); err != nil {
		t.Fatalf("OnStage let a non-matching stage fault: %v", err)
	}
	// The single shot is already spent on StageJob above.
	if err := Fire(StageEquiv); err != nil {
		t.Fatalf("wrong nesting unexpectedly reached the target stage: %v", err)
	}
}

func TestTimes(t *testing.T) {
	t.Cleanup(Clear)
	boom := errors.New("boom")
	Set(OnStage(StageSolve, Times(2, Fail(boom))))
	for i := 0; i < 2; i++ {
		if err := Fire(StageSolve); !errors.Is(err, boom) {
			t.Fatalf("fire %d: want boom, got %v", i, err)
		}
	}
	if err := Fire(StageSolve); err != nil {
		t.Fatalf("Times(2) fired a third time: %v", err)
	}
}

// A hook that panics unwinds out of Fire before the seam's own wrapping
// code can run, so Fire tags the panic with the seam's stage itself.
func TestFireTagsHookPanics(t *testing.T) {
	t.Cleanup(Clear)
	Set(OnStage(StageFPG, PanicWith("injected bug")))
	defer func() {
		r := recover()
		ie, ok := r.(*failure.InternalError)
		if !ok {
			t.Fatalf("want *failure.InternalError panic, got %T %v", r, r)
		}
		if ie.Stage != StageFPG {
			t.Fatalf("panic tagged %q, want %q", ie.Stage, StageFPG)
		}
	}()
	Fire(StageFPG)
	t.Fatal("Fire did not panic")
}

// A hook panicking with an already-typed InternalError keeps its
// original stage (an inner seam tagged it first).
func TestFirePreservesTypedPanics(t *testing.T) {
	t.Cleanup(Clear)
	inner := &failure.InternalError{Stage: StageEquiv, Value: "bug"}
	Set(PanicWith(inner))
	defer func() {
		ie, ok := recover().(*failure.InternalError)
		if !ok || ie != inner {
			t.Fatalf("typed panic not preserved: %v", ie)
		}
	}()
	Fire(StageModel)
}

func TestMutator(t *testing.T) {
	t.Cleanup(Clear)
	SetMutator(func(stage string, data []byte) []byte {
		if stage != StageCacheLoad {
			return data
		}
		out := append([]byte(nil), data...)
		for i := range out {
			out[i] ^= 0xff
		}
		return out
	})
	if got := Mutate(StageCacheLoad, []byte{0x00}); got[0] != 0xff {
		t.Fatalf("mutator not applied: %v", got)
	}
	if got := Mutate(StageJob, []byte{0x00}); got[0] != 0x00 {
		t.Fatalf("mutator leaked to another stage: %v", got)
	}
	Clear()
	if got := Mutate(StageCacheLoad, []byte{0x00}); got[0] != 0x00 {
		t.Fatalf("mutator survived Clear: %v", got)
	}
}
