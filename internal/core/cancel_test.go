package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"mahjong/internal/fpg"
	"mahjong/internal/lang"
	"mahjong/internal/pta"
)

// mergeableFPG builds an FPG with several type-consistent objects so
// that both modeling phases have real work to (not) do.
func mergeableFPG(t testing.TB) *fpg.Graph {
	t.Helper()
	p := lang.NewProgram()
	a := p.NewClass("A", nil)
	b := p.NewClass("B", nil)
	f := a.NewField("f", b)
	mainCls := p.NewClass("Main", nil)
	m := mainCls.NewMethod("main", true, nil, nil)
	for i := 0; i < 8; i++ {
		va := m.NewVar(fmt.Sprintf("a%d", i), a)
		vb := m.NewVar(fmt.Sprintf("b%d", i), b)
		m.AddAlloc(va, a)
		m.AddAlloc(vb, b)
		m.AddStore(va, f, vb)
	}
	m.AddReturn(nil)
	p.SetEntry(m)
	if err := p.Validate(); err != nil {
		t.Fatalf("program invalid: %v", err)
	}
	pre, err := pta.Solve(p, pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fpg.Build(pre, fpg.Options{})
}

func TestBuildContextPreCancelled(t *testing.T) {
	g := mergeableFPG(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildContext(ctx, g, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
}

func TestBuildContextBackgroundMatchesBuild(t *testing.T) {
	g := mergeableFPG(t)
	want := Build(g, Options{})
	got, err := BuildContext(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumMerged != want.NumMerged || got.NumObjects != want.NumObjects {
		t.Fatalf("BuildContext diverged: %d/%d vs %d/%d merged/objects",
			got.NumMerged, got.NumObjects, want.NumMerged, want.NumObjects)
	}
	if got.NumMerged >= got.NumObjects {
		t.Fatalf("expected some merging, got %d of %d", got.NumMerged, got.NumObjects)
	}
}
