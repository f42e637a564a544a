package automata

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mahjong/internal/fpg"
)

// buildFigure2 reconstructs the paper's Figure 2: two T-objects whose
// field graphs are structurally different NFAs but equivalent automata.
//
//	o1T --f--> o3U --h--> o7Y        o2T --f--> o4U --h--> o8Y
//	o1T --g--> o5X --k--> o9Y        o2T --g--> o6X --k--> o8Y
//	o3U --h--> o9Y  (both h-targets from o3)
func buildFigure2(t testing.TB) (*fpg.Graph, int, int) {
	if t != nil {
		t.Helper()
	}
	b := fpg.NewBuilder()
	o1 := b.AddObj("T")
	o2 := b.AddObj("T")
	o3 := b.AddObj("U")
	o4 := b.AddObj("U")
	o5 := b.AddObj("X")
	o6 := b.AddObj("X")
	o7 := b.AddObj("Y")
	o8 := b.AddObj("Y")
	o9 := b.AddObj("Y")
	b.AddEdge(o1, "f", o3)
	b.AddEdge(o1, "g", o5)
	b.AddEdge(o3, "h", o7)
	b.AddEdge(o3, "h", o9)
	b.AddEdge(o5, "k", o9)
	b.AddEdge(o2, "f", o4)
	b.AddEdge(o2, "g", o6)
	b.AddEdge(o4, "h", o8)
	b.AddEdge(o6, "k", o8)
	return b.Graph(), o1, o2
}

func TestFigure2Equivalent(t *testing.T) {
	g, o1, o2 := buildFigure2(t)
	u := NewUniverse(g)
	if !u.SingleTypeOK(o1) || !u.SingleTypeOK(o2) {
		t.Fatal("both T objects satisfy Condition 2")
	}
	d1, d2 := u.DFA(o1), u.DFA(o2)
	if !u.Equivalent(d1, d2) {
		t.Fatal("Figure 2 automata must be equivalent")
	}
	// Symmetry.
	if !u.Equivalent(d2, d1) {
		t.Fatal("equivalence not symmetric")
	}
}

func TestDifferentTypesNotEquivalent(t *testing.T) {
	b := fpg.NewBuilder()
	a1 := b.AddObj("A")
	a2 := b.AddObj("A")
	x := b.AddObj("X")
	y := b.AddObj("Y")
	b.AddEdge(a1, "f", x)
	b.AddEdge(a2, "f", y)
	g := b.Graph()
	u := NewUniverse(g)
	d1, d2 := u.DFA(a1), u.DFA(a2)
	if u.Equivalent(d1, d2) {
		t.Fatal("objects reaching X vs Y must differ")
	}
}

func TestMissingFieldVsNull(t *testing.T) {
	// a1.f -> null (edge to null node); a2 has no f at all. Per
	// Algorithm 4, a missing transition goes to q_error whose output
	// differs from the null type, so they are NOT equivalent.
	b := fpg.NewBuilder()
	a1 := b.AddObj("A")
	a2 := b.AddObj("A")
	b.AddEdge(a1, "f", fpg.NullNode)
	g := b.Graph()
	u := NewUniverse(g)
	d1, d2 := u.DFA(a1), u.DFA(a2)
	if u.Equivalent(d1, d2) {
		t.Fatal("null-field vs absent-field must be distinguished")
	}
}

func TestBothNullFieldsEquivalent(t *testing.T) {
	b := fpg.NewBuilder()
	a1 := b.AddObj("A")
	a2 := b.AddObj("A")
	b.AddEdge(a1, "f", fpg.NullNode)
	b.AddEdge(a2, "f", fpg.NullNode)
	g := b.Graph()
	u := NewUniverse(g)
	if !u.Equivalent(u.DFA(a1), u.DFA(a2)) {
		t.Fatal("identical null-field objects must merge")
	}
}

func TestSingleTypeCheckFails(t *testing.T) {
	// a.f -> {X, Y}: Condition 2 violated (Example 2.4 / Figure 3).
	b := fpg.NewBuilder()
	a := b.AddObj("A")
	x := b.AddObj("X")
	y := b.AddObj("Y")
	b.AddEdge(a, "f", x)
	b.AddEdge(a, "f", y)
	g := b.Graph()
	u := NewUniverse(g)
	if u.SingleTypeOK(a) {
		t.Fatal("multi-type f-targets must fail SINGLETYPE-CHECK")
	}
	// Memoized second call.
	if u.SingleTypeOK(a) {
		t.Fatal("memoized result changed")
	}
	// Same-type multi-target passes.
	b2 := fpg.NewBuilder()
	a2 := b2.AddObj("A")
	x1 := b2.AddObj("X")
	x2 := b2.AddObj("X")
	b2.AddEdge(a2, "f", x1)
	b2.AddEdge(a2, "f", x2)
	u2 := NewUniverse(b2.Graph())
	if !u2.SingleTypeOK(a2) {
		t.Fatal("same-type f-targets must pass")
	}
}

func TestCyclicAutomata(t *testing.T) {
	// Two rings of different length over the same type: a1 -> a2 -> a1
	// vs b1 -> b1. All states single-typed; automata are equivalent
	// (every path leads to type A forever).
	b := fpg.NewBuilder()
	a1 := b.AddObj("A")
	a2 := b.AddObj("A")
	c1 := b.AddObj("A")
	b.AddEdge(a1, "next", a2)
	b.AddEdge(a2, "next", a1)
	b.AddEdge(c1, "next", c1)
	g := b.Graph()
	u := NewUniverse(g)
	if !u.SingleTypeOK(a1) || !u.SingleTypeOK(c1) {
		t.Fatal("cyclic graphs must pass the check")
	}
	if !u.Equivalent(u.DFA(a1), u.DFA(c1)) {
		t.Fatal("rings of equal type must be equivalent")
	}
}

func TestSharingAcrossObjects(t *testing.T) {
	// Two objects pointing at the same subgraph share DFA states.
	b := fpg.NewBuilder()
	a1 := b.AddObj("A")
	a2 := b.AddObj("A")
	x := b.AddObj("X")
	y := b.AddObj("Y")
	b.AddEdge(a1, "f", x)
	b.AddEdge(a2, "f", x)
	b.AddEdge(x, "g", y)
	g := b.Graph()
	u := NewUniverse(g)
	u.DFA(a1)
	n1 := u.NumStates()
	u.DFA(a2)
	n2 := u.NumStates()
	// Only the new root {a2} is added; {x} and {y} are shared.
	if n2 != n1+1 {
		t.Fatalf("states grew %d -> %d, want +1", n1, n2)
	}
	// Hash-consing fast path: identical successor structure.
	if !u.Equivalent(u.Root(a1), u.Root(a2)) {
		t.Fatal("objects sharing all successors must be equivalent")
	}
}

func TestStateCount(t *testing.T) {
	g, o1, _ := buildFigure2(t)
	u := NewUniverse(g)
	d := u.DFA(o1)
	// States: {o1}, {o3}, {o5}, {o7,o9}, {o9}.
	if got := u.StateCount(d); got != 5 {
		t.Fatalf("StateCount=%d want 5", got)
	}
}

// TestEquivalentAllocFree: once its scratch has grown, Equivalent
// allocates nothing, on equivalent and inequivalent pairs alike.
func TestEquivalentAllocFree(t *testing.T) {
	b := fpg.NewBuilder()
	a1, a2, a3 := b.AddObj("A"), b.AddObj("A"), b.AddObj("A")
	x1, x2 := b.AddObj("X"), b.AddObj("X")
	y := b.AddObj("Y")
	b.AddEdge(a1, "f", x1)
	b.AddEdge(a2, "f", x2)
	b.AddEdge(a3, "f", x1)
	b.AddEdge(x1, "g", y)
	b.AddEdge(x2, "g", y)
	b.AddEdge(a3, "h", y) // a3 has a field the others lack
	u := NewUniverse(b.Graph())
	d1, d2, d3 := u.DFA(a1), u.DFA(a2), u.DFA(a3)
	check := func() {
		if !u.Equivalent(d1, d2) || u.Equivalent(d1, d3) {
			t.Fatal("wrong verdict")
		}
	}
	check() // warm the scratch
	if n := testing.AllocsPerRun(100, check); n != 0 {
		t.Fatalf("Equivalent allocated %v times per run on a warmed universe", n)
	}
}

// refEquivalent is an independent reference implementation: explicit
// map-based subset construction and BFS over state pairs comparing type
// sets, with q_error modeled as a nil set.
func refEquivalent(g *fpg.Graph, a, b int) bool {
	type stateID = string
	canon := func(nodes []int) ([]int, stateID) {
		sort.Ints(nodes)
		out := nodes[:0]
		for i, n := range nodes {
			if i == 0 || n != nodes[i-1] {
				out = append(out, n)
			}
		}
		key := ""
		for _, n := range out {
			key += "," + string(rune(n+33))
		}
		return out, key
	}
	typesOf := func(nodes []int) []int {
		seen := map[int]bool{}
		var ts []int
		for _, n := range nodes {
			t := g.TypeOf[n]
			if !seen[t] {
				seen[t] = true
				ts = append(ts, t)
			}
		}
		sort.Ints(ts)
		return ts
	}
	eqInts := func(x, y []int) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	next := func(nodes []int, f int) []int {
		var out []int
		for _, n := range nodes {
			out = append(out, g.Succ(n, f)...)
		}
		return out
	}
	fieldsOf := func(nodes []int) []int {
		seen := map[int]bool{}
		var fs []int
		for _, n := range nodes {
			for _, f := range g.FieldsOf(n) {
				if !seen[f] {
					seen[f] = true
					fs = append(fs, f)
				}
			}
		}
		sort.Ints(fs)
		return fs
	}
	type pairKey struct{ a, b stateID }
	seen := map[pairKey]bool{}
	type pair struct{ x, y []int }
	sx, kx := canon([]int{a})
	sy, ky := canon([]int{b})
	queue := []pair{{sx, sy}}
	seen[pairKey{kx, ky}] = true
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if !eqInts(typesOf(p.x), typesOf(p.y)) {
			return false
		}
		fs := map[int]bool{}
		for _, f := range fieldsOf(p.x) {
			fs[f] = true
		}
		for _, f := range fieldsOf(p.y) {
			fs[f] = true
		}
		var fss []int
		for f := range fs {
			fss = append(fss, f)
		}
		sort.Ints(fss)
		for _, f := range fss {
			nx, ny := next(p.x, f), next(p.y, f)
			// null's implicit self-loop only fires when the null node is a
			// member and the field exists somewhere; Succ handles that.
			if (len(nx) == 0) != (len(ny) == 0) {
				return false // one side hits q_error
			}
			if len(nx) == 0 {
				continue
			}
			cx, kx := canon(nx)
			cy, ky := canon(ny)
			pk := pairKey{kx, ky}
			if !seen[pk] {
				seen[pk] = true
				queue = append(queue, pair{cx, cy})
			}
		}
	}
	return true
}

// randomGraph builds a random FPG with nTypes types, nObjs objects,
// nFields field names and random edges (possibly to null).
func randomGraph(rng *rand.Rand) (*fpg.Graph, []int) {
	b := fpg.NewBuilder()
	nTypes := 1 + rng.Intn(4)
	nObjs := 2 + rng.Intn(10)
	nFields := 1 + rng.Intn(4)
	typeNames := make([]string, nTypes)
	for i := range typeNames {
		typeNames[i] = string(rune('A' + i))
	}
	fieldNames := make([]string, nFields)
	for i := range fieldNames {
		fieldNames[i] = string(rune('f' + i))
	}
	nodes := make([]int, nObjs)
	for i := range nodes {
		nodes[i] = b.AddObj(typeNames[rng.Intn(nTypes)])
	}
	nEdges := rng.Intn(3 * nObjs)
	for i := 0; i < nEdges; i++ {
		from := nodes[rng.Intn(nObjs)]
		to := fpg.NullNode
		if rng.Intn(8) != 0 {
			to = nodes[rng.Intn(nObjs)]
		}
		b.AddEdge(from, fieldNames[rng.Intn(nFields)], to)
	}
	return b.Graph(), nodes
}

// TestQuickEquivalenceVsReference cross-checks the shared Hopcroft–Karp
// implementation against the independent reference on random graphs.
func TestQuickEquivalenceVsReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, nodes := randomGraph(rng)
		u := NewUniverse(g)
		for _, n := range nodes {
			u.DFA(n)
		}
		for i := 0; i < len(nodes); i++ {
			for j := i; j < len(nodes); j++ {
				a, b := nodes[i], nodes[j]
				got := u.Equivalent(u.Root(a), u.Root(b))
				want := refEquivalent(g, a, b)
				if got != want {
					t.Logf("seed=%d a=%d b=%d got=%v want=%v", seed, a, b, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEquivalenceRelation checks reflexivity, symmetry and
// transitivity of the equivalence on random graphs.
func TestQuickEquivalenceRelation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, nodes := randomGraph(rng)
		u := NewUniverse(g)
		for _, n := range nodes {
			u.DFA(n)
		}
		eq := func(a, b int) bool { return u.Equivalent(u.Root(a), u.Root(b)) }
		for _, n := range nodes {
			if !eq(n, n) {
				return false
			}
		}
		for i := 0; i < 12; i++ {
			a := nodes[rng.Intn(len(nodes))]
			b := nodes[rng.Intn(len(nodes))]
			c := nodes[rng.Intn(len(nodes))]
			if eq(a, b) != eq(b, a) {
				return false
			}
			if eq(a, b) && eq(b, c) && !eq(a, c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSingleTypeVsDFA: SINGLETYPE-CHECK must agree with directly
// inspecting all reachable DFA state outputs.
func TestQuickSingleTypeVsDFA(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, nodes := randomGraph(rng)
		for _, n := range nodes {
			u1 := NewUniverse(g)
			got := u1.SingleTypeOK(n)
			u2 := NewUniverse(g)
			root := u2.DFA(n)
			want := allSingle(u2, root)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func allSingle(u *Universe, root *State) bool {
	seen := map[*State]bool{root: true}
	stack := []*State{root}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.Single < 0 {
			return false
		}
		for _, f := range s.Fields() {
			n := s.Next(f)
			if !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return true
}
