package pta

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"mahjong/internal/lang"
	"mahjong/internal/parser"
	"mahjong/internal/synth"
)

// referenceFieldPointsTo is the original map-and-sort FieldPointsTo,
// kept as an oracle for the dense walk: it enumerates field nodes by
// probing every layout field of every interned object plus the
// out-of-layout map, merges targets per (object, field) in hash maps,
// and sorts keys and targets at the end. It shares no grouping,
// ordering or deduplication code with Result.WalkFieldPointsTo.
func referenceFieldPointsTo(r *Result, fn func(base *Obj, field *lang.Field, targets []*Obj)) {
	s := r.solver
	type objField struct {
		obj   *Obj
		field *lang.Field
	}
	merged := make(map[objField]map[*Obj]bool)
	visit := func(obj int, f *lang.Field, nodeID int) {
		key := objField{s.csobjs[obj].Obj, f}
		tgts := merged[key]
		if tgts == nil {
			tgts = make(map[*Obj]bool)
			merged[key] = tgts
		}
		s.nodes.at(nodeID).pts.ForEach(func(i int) bool {
			tgts[s.csobjs[i].Obj] = true
			return true
		})
	}
	for id, cs := range s.csobjs {
		for _, f := range cs.Obj.Type.InstanceFields() {
			if n, ok := s.lookupField(id, f); ok {
				visit(id, f, n)
			}
		}
	}
	for k, n := range s.oddFields {
		visit(k.obj, k.field, int(n))
	}
	keys := make([]objField, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].obj.ID != keys[j].obj.ID {
			return keys[i].obj.ID < keys[j].obj.ID
		}
		return keys[i].field.ID < keys[j].field.ID
	})
	for _, k := range keys {
		set := merged[k]
		out := make([]*Obj, 0, len(set))
		for o := range set {
			out = append(out, o)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		fn(k.obj, k.field, out)
	}
}

type fieldFact struct {
	base    *Obj
	field   *lang.Field
	targets []*Obj
}

func collectFacts(walk func(func(*Obj, *lang.Field, []*Obj))) []fieldFact {
	var out []fieldFact
	walk(func(base *Obj, f *lang.Field, targets []*Obj) {
		out = append(out, fieldFact{base, f, targets})
	})
	return out
}

// assertFieldPointsToMatchesReference compares the dense walk with the
// reference fact for fact, order included.
func assertFieldPointsToMatchesReference(t *testing.T, tag string, r *Result) {
	t.Helper()
	got := collectFacts(r.FieldPointsTo)
	want := collectFacts(func(fn func(*Obj, *lang.Field, []*Obj)) { referenceFieldPointsTo(r, fn) })
	if len(got) != len(want) {
		t.Fatalf("%s: %d field facts, reference has %d", tag, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.base != w.base || g.field != w.field || !slices.Equal(g.targets, w.targets) {
			t.Fatalf("%s: fact %d is %s.%s -> %v, reference has %s.%s -> %v",
				tag, i, g.base, g.field.Name, g.targets, w.base, w.field.Name, w.targets)
		}
	}
}

func referencePrograms(t *testing.T) map[string]*lang.Program {
	t.Helper()
	progs := make(map[string]*lang.Program)
	for _, name := range synth.ProfileNames() {
		prof, err := synth.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = synth.MustGenerate(prof)
	}
	irs, err := filepath.Glob("../../testdata/corpus/*.ir")
	if err != nil || len(irs) == 0 {
		t.Fatalf("corpus programs: %v (%d found)", err, len(irs))
	}
	for _, path := range irs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := parser.Parse(path, string(src))
		if err != nil {
			t.Fatal(err)
		}
		progs["corpus/"+strings.TrimSuffix(filepath.Base(path), ".ir")] = p
	}
	for seed := int64(1); seed <= 40; seed++ {
		progs[fmt.Sprintf("random/%d", seed)] = synth.RandomProgram(seed)
	}
	return progs
}

// TestFieldPointsToMatchesReference runs the dense walk against the
// reference on the subjects, the corpus and random programs, and under
// a context-sensitive selector (several CSObjs per abstract object,
// merged per field).
func TestFieldPointsToMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every subject")
	}
	for name, prog := range referencePrograms(t) {
		r, err := Solve(prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		assertFieldPointsToMatchesReference(t, name, r)
		if strings.HasPrefix(name, "random/") || strings.HasPrefix(name, "corpus/") {
			r, err := Solve(prog, Options{Selector: KObj{K: 2}})
			if err != nil {
				t.Fatal(err)
			}
			assertFieldPointsToMatchesReference(t, name+" 2obj", r)
		}
	}
}

// TestFieldPointsToOutOfLayout: a field stored into an object whose
// type does not declare or inherit it (an imprecise flow) takes the
// solver's out-of-layout path and still reaches FieldPointsTo, in
// field order among the object's layout fields.
func TestFieldPointsToOutOfLayout(t *testing.T) {
	p := lang.NewProgram()
	a := p.NewClass("A", nil)
	fa := a.NewField("fa", p.Object())
	b := p.NewClass("B", nil)
	fb := b.NewField("fb", p.Object())
	fz := b.NewField("fz", p.Object())
	main := p.NewClass("Main", nil).NewMethod("main", true, nil, nil)
	x := main.NewVar("x", b)
	y := main.NewVar("y", p.Object())
	main.AddAlloc(x, b)
	main.AddAlloc(y, a)
	main.AddStore(x, fz, y)
	main.AddStore(x, fa, y) // fa is A's field; x only ever holds a B
	main.AddStore(x, fb, y)
	main.AddReturn(nil)
	p.SetEntry(main)
	r, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.solver.oddFields) != 1 {
		t.Fatalf("%d out-of-layout field nodes, want 1", len(r.solver.oddFields))
	}
	facts := collectFacts(r.FieldPointsTo)
	var got []string
	for _, f := range facts {
		got = append(got, fmt.Sprintf("%s.%s->%d", f.base.Type.Name, f.field.Name, len(f.targets)))
	}
	if want := []string{"B.fa->1", "B.fb->1", "B.fz->1"}; !slices.Equal(got, want) {
		t.Fatalf("facts %v, want %v", got, want)
	}
	assertFieldPointsToMatchesReference(t, "out-of-layout", r)
}
