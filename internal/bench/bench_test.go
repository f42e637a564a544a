package bench

import (
	"strings"
	"testing"

	"mahjong/internal/clients"
)

// prepLuindex caches the smallest benchmark across tests in this file.
var prepCache = map[string]*Program{}

func prep(t *testing.T, name string) *Program {
	t.Helper()
	if p, ok := prepCache[name]; ok {
		return p
	}
	p, err := Prepare(name)
	if err != nil {
		t.Fatal(err)
	}
	prepCache[name] = p
	return p
}

func TestPrepareSmallest(t *testing.T) {
	p := prep(t, "luindex")
	if p.Graph.NumObjects() == 0 || p.Mahjong.NumMerged == 0 {
		t.Fatal("pipeline produced empty results")
	}
	if p.Mahjong.NumMerged >= p.Mahjong.NumObjects {
		t.Fatal("no merging happened")
	}
	if p.AvgNFASize <= 1 || p.MaxNFASize < int(p.AvgNFASize) {
		t.Fatalf("NFA stats implausible: avg=%.1f max=%d", p.AvgNFASize, p.MaxNFASize)
	}
}

func TestPrepareUnknown(t *testing.T) {
	if _, err := Prepare("nope"); err == nil {
		t.Fatal("want error")
	}
}

func TestAnalysisLineup(t *testing.T) {
	names := []string{"ci", "2cs", "2type", "3type", "2obj", "3obj"}
	as := Analyses()
	if len(as) != len(names) {
		t.Fatalf("analyses=%d", len(as))
	}
	for i, a := range as {
		if a.Name != names[i] {
			t.Fatalf("analysis %d = %s want %s", i, a.Name, names[i])
		}
		if a.Make().Name() != a.Name && a.Name != "ci" {
			t.Fatalf("selector name mismatch for %s", a.Name)
		}
	}
	if _, err := AnalysisByName("3obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := AnalysisByName("9cs"); err == nil {
		t.Fatal("want error for unknown analysis")
	}
}

// TestCellPrecisionShape checks the Table 2 invariants on luindex: all
// cells scalable, M-A equal to A on the paper's type-dependent clients
// for every analysis, the identity-dependent escape client no more
// precise under merging, and alloc-type strictly less precise.
func TestCellPrecisionShape(t *testing.T) {
	// The near-lossless claim covers the type-dependent clients only;
	// identity-dependent metrics (escape, nullness, taint flow) may
	// legitimately coarsen under merging and are checked by ordering.
	typeDependent := func(m clients.Metrics) [4]int {
		return [4]int{m.CallGraphEdges, m.PolyCallSites, m.MayFailCasts, m.Reachable}
	}
	p := prep(t, "luindex")
	for _, a := range Analyses() {
		base := p.RunCell(a, HeapAllocSite, 0)
		mj := p.RunCell(a, HeapMahjong, 0)
		if !base.Scalable || !mj.Scalable {
			t.Fatalf("%s not scalable on luindex", a.Name)
		}
		if typeDependent(base.Metrics) != typeDependent(mj.Metrics) {
			t.Errorf("%s: type-dependent metrics differ: A=%+v M=%+v", a.Name, base.Metrics, mj.Metrics)
		}
		if base.Metrics.EscapingSites > mj.Metrics.EscapingSites ||
			base.Metrics.TaintedSinks > mj.Metrics.TaintedSinks ||
			mj.Metrics.StackAllocSites > base.Metrics.StackAllocSites {
			t.Errorf("%s: merged heap more precise than alloc-site on identity clients: A=%+v M=%+v",
				a.Name, base.Metrics, mj.Metrics)
		}
		if mj.Work > base.Work {
			t.Errorf("%s: M-A did more work (%d) than A (%d)", a.Name, mj.Work, base.Work)
		}
	}
	a3, _ := AnalysisByName("3obj")
	ty := p.RunCell(a3, HeapAllocType, 0)
	mj := p.RunCell(a3, HeapMahjong, 0)
	if ty.Metrics.MayFailCasts <= mj.Metrics.MayFailCasts {
		t.Errorf("alloc-type casts %d should exceed mahjong %d", ty.Metrics.MayFailCasts, mj.Metrics.MayFailCasts)
	}
	if ty.Metrics.PolyCallSites < mj.Metrics.PolyCallSites {
		t.Errorf("alloc-type poly sites below mahjong")
	}
}

// TestScalabilityClassification pins the paper's qualitative Table 2
// shape on one representative of each tier (kept to three programs so
// the test stays fast).
func TestScalabilityClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: prepares three mid-size programs")
	}
	a3, _ := AnalysisByName("3obj")

	// Small tier: both variants scalable.
	small := prep(t, "luindex")
	if c := small.RunCell(a3, HeapAllocSite, 0); !c.Scalable {
		t.Error("luindex baseline 3obj should be scalable")
	}

	// Mid tier: baseline unscalable, Mahjong scalable.
	mid := prep(t, "checkstyle")
	if c := mid.RunCell(a3, HeapAllocSite, 0); c.Scalable {
		t.Error("checkstyle baseline 3obj should exceed the budget")
	}
	if c := mid.RunCell(a3, HeapMahjong, 0); !c.Scalable {
		t.Error("checkstyle M-3obj should be scalable")
	}

	// Big tier: both unscalable (DiverseDocs).
	big := prep(t, "JPC")
	if c := big.RunCell(a3, HeapAllocSite, 0); c.Scalable {
		t.Error("JPC baseline 3obj should exceed the budget")
	}
	if c := big.RunCell(a3, HeapMahjong, 0); c.Scalable {
		t.Error("JPC M-3obj should exceed the budget (diverse docs)")
	}
}

func TestTablesRender(t *testing.T) {
	s := NewSuite()
	if len(s.Programs) != 12 {
		t.Fatalf("suite covers %d programs, want all 12 benchmarks", len(s.Programs))
	}
	s.Programs = []string{"luindex"}
	s.Repeat = 1
	var sb strings.Builder

	if err := s.Table2(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 2", "luindex", "3obj", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}

	sb.Reset()
	if err := s.Fig8(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "reduction") {
		t.Error("Fig8 missing reduction column")
	}

	sb.Reset()
	if err := s.Fig9(&sb, "luindex"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "class size") {
		t.Error("Fig9 missing header")
	}

	sb.Reset()
	if err := s.Table1(&sb, "luindex", 6); err != nil {
		t.Fatal(err)
	}
	table1 := sb.String()
	if !strings.Contains(table1, "java.lang.StringBuilder") && !strings.Contains(table1, "java.lang.String") {
		t.Errorf("Table1 should feature string machinery:\n%s", table1)
	}

	sb.Reset()
	if err := s.PreStats(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "avgNFA") {
		t.Error("PreStats missing NFA stats")
	}
}

func TestFig9Shape(t *testing.T) {
	// The class-size distribution must have many singletons and at
	// least one large class (the Figure 9 shape).
	p := prep(t, "luindex")
	h := p.Mahjong.SizeHistogram()
	if len(h) < 2 {
		t.Fatalf("degenerate histogram: %v", h)
	}
	if h[0][0] != 1 || h[0][1] < 10 {
		t.Errorf("expected a heavy head of singletons, got %v", h[0])
	}
	last := h[len(h)-1]
	if last[0] < 5 {
		t.Errorf("expected at least one large class, biggest size=%d", last[0])
	}
}

func TestRemark(t *testing.T) {
	p := prep(t, "luindex")
	// The largest StringBuilder class should be remarked with char[].
	for _, c := range p.Mahjong.Classes {
		if c.Type.Name == "java.lang.StringBuilder" && c.Size() > 1 {
			if got := remark(p, c); got != "char[]" {
				t.Fatalf("StringBuilder remark=%q want char[]", got)
			}
			return
		}
	}
	t.Fatal("no merged StringBuilder class found")
}
