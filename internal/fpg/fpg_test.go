package fpg

import (
	"context"
	"errors"
	"testing"

	"mahjong/internal/lang"
	"mahjong/internal/pta"
	"mahjong/internal/synth"
)

// buildLinked builds: main allocates Node n1 {next -> Leaf}, Node n2
// (next never assigned → null), and a Leaf; runs CI pre-analysis.
func buildLinked(t *testing.T) (*lang.Program, *pta.Result, []*lang.AllocSite) {
	t.Helper()
	p := lang.NewProgram()
	leaf := p.NewClass("Leaf", nil)
	node := p.NewClass("Node", nil)
	next := node.NewField("next", leaf)
	mainCls := p.NewClass("Main", nil)
	m := mainCls.NewMethod("main", true, nil, nil)
	n1 := m.NewVar("n1", node)
	n2 := m.NewVar("n2", node)
	l := m.NewVar("l", leaf)
	s1 := m.AddAlloc(n1, node)
	s2 := m.AddAlloc(n2, node)
	s3 := m.AddAlloc(l, leaf)
	m.AddStore(n1, next, l)
	m.AddReturn(nil)
	p.SetEntry(m)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := pta.Solve(p, pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, r, []*lang.AllocSite{s1, s2, s3}
}

func TestBuildBasic(t *testing.T) {
	_, r, sites := buildLinked(t)
	g := Build(r, Options{})
	if g.NumObjects() != 3 {
		t.Fatalf("objects=%d want 3", g.NumObjects())
	}
	if g.NumTypes() != 2 {
		t.Fatalf("types=%d want 2", g.NumTypes())
	}
	// n1.next -> leaf; n2.next -> null.
	var n1, n2, lf int
	for id := 1; id < len(g.Objs); id++ {
		switch g.Objs[id].Rep {
		case sites[0]:
			n1 = id
		case sites[1]:
			n2 = id
		case sites[2]:
			lf = id
		}
	}
	if n1 == 0 || n2 == 0 || lf == 0 {
		t.Fatal("nodes not found")
	}
	fid := g.Fields[0]
	_ = fid
	if got := g.Succ(n1, g.FieldsOf(n1)[0]); len(got) != 1 || got[0] != lf {
		t.Fatalf("n1.next=%v want [leaf]", got)
	}
	if got := g.Succ(n2, g.FieldsOf(n2)[0]); len(got) != 1 || got[0] != NullNode {
		t.Fatalf("n2.next=%v want [null]", got)
	}
	// Type IDs distinguish null.
	if g.TypeOf[NullNode] != NullType || g.TypeOf[n1] == NullType {
		t.Fatal("type ids wrong")
	}
}

func TestOmitNullNode(t *testing.T) {
	_, r, sites := buildLinked(t)
	g := Build(r, Options{OmitNullNode: true})
	var n2 int
	for id := 1; id < len(g.Objs); id++ {
		if g.Objs[id].Rep == sites[1] {
			n2 = id
		}
	}
	if len(g.FieldsOf(n2)) != 0 {
		t.Fatalf("n2 should have no edges, got %v", g.FieldsOf(n2))
	}
}

func TestNullSelfLoop(t *testing.T) {
	_, r, _ := buildLinked(t)
	g := Build(r, Options{})
	for f := 0; f < g.NumFields(); f++ {
		got := g.Succ(NullNode, f)
		if len(got) != 1 || got[0] != NullNode {
			t.Fatalf("null.%d=%v want self-loop", f, got)
		}
	}
}

func TestReachableAndNFASize(t *testing.T) {
	b := NewBuilder()
	a := b.AddObj("A")
	x := b.AddObj("X")
	y := b.AddObj("Y")
	z := b.AddObj("Z") // unreachable from a
	b.AddEdge(a, "f", x)
	b.AddEdge(x, "g", y)
	b.AddEdge(y, "h", x) // cycle x->y->x
	b.AddEdge(z, "f", z)
	g := b.Graph()
	reach := g.Reachable(a)
	if len(reach) != 3 {
		t.Fatalf("reachable=%v want 3 nodes", reach)
	}
	if g.NFASize(a) != 3 || g.NFASize(z) != 1 {
		t.Fatalf("NFA sizes: a=%d z=%d", g.NFASize(a), g.NFASize(z))
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder()
	a := b.AddObj("A")
	x := b.AddObj("X")
	b.AddEdge(a, "f", x)
	b.AddEdge(a, "f", x)
	g := b.Graph()
	if got := g.Succ(a, 0); len(got) != 1 {
		t.Fatalf("duplicate edges kept: %v", got)
	}
}

func TestGraphString(t *testing.T) {
	b := NewBuilder()
	b.AddObj("A")
	g := b.Graph()
	if got := g.String(); got != "FPG{objects: 1, types: 1, fields: 0}" {
		t.Fatalf("String=%q", got)
	}
}

func TestNodeLookup(t *testing.T) {
	_, r, _ := buildLinked(t)
	g := Build(r, Options{})
	for id := 1; id < len(g.Objs); id++ {
		if g.Node(g.Objs[id]) != id {
			t.Fatal("Node lookup mismatch")
		}
	}
	if g.Node(&pta.Obj{}) != -1 {
		t.Fatal("unknown object should map to -1")
	}
}

// countdownCtx is a context whose Err starts reporting cancellation
// after a fixed number of calls, so a test can tell which poll site
// observed it.
type countdownCtx struct {
	context.Context
	calls, live int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.live {
		return context.Canceled
	}
	return nil
}

// TestBuildContextCancelledWhileMaterializing: cancellation is observed
// inside the field-fact walk, not only during null completion. With
// null completion off, the only polls are the entry check and the fact
// walk's every-1024-base-objects check, so a context that cancels after
// its first Err call must be caught by the walk.
func TestBuildContextCancelledWhileMaterializing(t *testing.T) {
	prof, err := synth.ProfileByName("eclipse")
	if err != nil {
		t.Fatal(err)
	}
	r, err := pta.Solve(synth.MustGenerate(prof), pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bases := map[*pta.Obj]bool{}
	r.FieldPointsTo(func(base *pta.Obj, _ *lang.Field, _ []*pta.Obj) { bases[base] = true })
	if len(bases) < 1024 {
		t.Fatalf("subject has %d base objects with field facts; the test needs at least 1024", len(bases))
	}
	ctx := &countdownCtx{Context: context.Background(), live: 1}
	g, err := BuildContext(ctx, r, Options{OmitNullNode: true})
	if !errors.Is(err, context.Canceled) || g != nil {
		t.Fatalf("BuildContext = %v, %v; want a context.Canceled error", g, err)
	}
	if ctx.calls != 2 {
		t.Fatalf("Err called %d times, want 2 (entry check, then the first fact-walk poll)", ctx.calls)
	}

	// A context that never cancels sees one poll per 1024 base objects.
	ctx = &countdownCtx{Context: context.Background(), live: 1 << 30}
	if _, err := BuildContext(ctx, r, Options{OmitNullNode: true}); err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(bases)/1024; ctx.calls != want {
		t.Fatalf("Err called %d times over %d base objects, want %d", ctx.calls, len(bases), want)
	}
}
