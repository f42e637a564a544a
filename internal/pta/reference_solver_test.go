package pta_test

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
	"mahjong/internal/pta"
	"mahjong/internal/synth"
)

// The reference solver is a naive fixpoint of docs/IR.md's rules for the
// context-insensitive analysis under the allocation-site heap: every
// round applies every statement of every reachable method until a whole
// round changes nothing. It lives in an external test package, so it
// can reach the solver only through its exported results, and it keeps
// its own tables: points-to sets are maps of allocation sites, field
// sets are keyed by (site, field), and each method's exception sink is a
// set of its own (reading the sink never creates the lazy $exc
// variable). Results are compared through site labels.

type refSet map[*lang.AllocSite]struct{}

type refField struct {
	site  *lang.AllocSite
	field *lang.Field
}

type refCall struct {
	inv    *lang.Invoke
	callee *lang.Method
}

type refSolver struct {
	reach   map[*lang.Method]bool
	methods []*lang.Method // reachable methods in discovery order
	vars    map[*lang.Var]refSet
	exc     map[*lang.Method]refSet
	fields  map[refField]refSet
	statics map[*lang.Field]refSet
	calls   map[refCall]bool
	changed bool
}

func solveReference(prog *lang.Program) *refSolver {
	r := &refSolver{
		reach:   map[*lang.Method]bool{},
		vars:    map[*lang.Var]refSet{},
		exc:     map[*lang.Method]refSet{},
		fields:  map[refField]refSet{},
		statics: map[*lang.Field]refSet{},
		calls:   map[refCall]bool{},
	}
	r.makeReachable(prog.Entry)
	for r.changed {
		r.changed = false
		// Methods reached during a round are visited in the same round.
		for i := 0; i < len(r.methods); i++ {
			m := r.methods[i]
			for _, st := range m.Stmts {
				r.apply(m, st)
			}
		}
	}
	return r
}

func (r *refSolver) makeReachable(m *lang.Method) {
	if !r.reach[m] {
		r.reach[m] = true
		r.methods = append(r.methods, m)
		r.changed = true
	}
}

// set returns the points-to set of v, creating it empty.
func (r *refSolver) set(v *lang.Var) refSet {
	if v.Method.HasExcVar() && v.Method.ExcVar() == v {
		return r.excSet(v.Method)
	}
	s := r.vars[v]
	if s == nil {
		s = refSet{}
		r.vars[v] = s
	}
	return s
}

func (r *refSolver) excSet(m *lang.Method) refSet {
	s := r.exc[m]
	if s == nil {
		s = refSet{}
		r.exc[m] = s
	}
	return s
}

func (r *refSolver) fieldSet(o *lang.AllocSite, f *lang.Field) refSet {
	k := refField{o, f}
	s := r.fields[k]
	if s == nil {
		s = refSet{}
		r.fields[k] = s
	}
	return s
}

func (r *refSolver) staticSet(f *lang.Field) refSet {
	s := r.statics[f]
	if s == nil {
		s = refSet{}
		r.statics[f] = s
	}
	return s
}

func (r *refSolver) add(dst refSet, o *lang.AllocSite) {
	if _, ok := dst[o]; !ok {
		dst[o] = struct{}{}
		r.changed = true
	}
}

// flow adds to dst every object of src whose type is a subtype of
// filter (nil: no filter).
func (r *refSolver) flow(dst, src refSet, filter *lang.Class) {
	for o := range src {
		if filter == nil || o.Type.SubtypeOf(filter) {
			r.add(dst, o)
		}
	}
}

// objects returns a snapshot of s: rules that iterate a base set may
// grow it (a self-load x = x.f).
func objects(s refSet) []*lang.AllocSite {
	out := make([]*lang.AllocSite, 0, len(s))
	for o := range s {
		out = append(out, o)
	}
	return out
}

func (r *refSolver) apply(m *lang.Method, st lang.Stmt) {
	switch st := st.(type) {
	case *lang.Alloc:
		r.add(r.set(st.LHS), st.Site)
	case *lang.Copy:
		r.flow(r.set(st.LHS), r.set(st.RHS), nil)
	case *lang.Cast:
		r.flow(r.set(st.LHS), r.set(st.RHS), st.Type)
	case *lang.Load:
		for _, o := range objects(r.set(st.Base)) {
			r.flow(r.set(st.LHS), r.fieldSet(o, st.Field), nil)
		}
	case *lang.Store:
		for _, o := range objects(r.set(st.Base)) {
			r.flow(r.fieldSet(o, st.Field), r.set(st.RHS), nil)
		}
	case *lang.StaticLoad:
		r.flow(r.set(st.LHS), r.staticSet(st.Field), nil)
	case *lang.StaticStore:
		r.flow(r.staticSet(st.Field), r.set(st.RHS), nil)
	case *lang.Invoke:
		if st.Kind == lang.StaticCall {
			r.call(st, st.Callee)
			return
		}
		for _, o := range objects(r.set(st.Base)) {
			callee := st.Callee
			if st.Kind == lang.VirtualCall {
				if callee = o.Type.Dispatch(st.Callee.Sig()); callee == nil {
					continue // no implementation for this receiver type
				}
			}
			r.call(st, callee)
			if callee.This != nil {
				r.add(r.set(callee.This), o)
			}
		}
	case *lang.Return:
		if st.Value != nil && m.RetVar != nil {
			r.flow(r.set(m.RetVar), r.set(st.Value), nil)
		}
	case *lang.Throw:
		r.flow(r.excSet(m), r.set(st.Value), nil)
	case *lang.Catch:
		r.flow(r.set(st.LHS), r.excSet(m), st.Type)
	default:
		panic(fmt.Sprintf("reference: unknown statement %T", st))
	}
}

// call records the call edge and applies its parameter, return and
// exception flows.
func (r *refSolver) call(inv *lang.Invoke, callee *lang.Method) {
	k := refCall{inv, callee}
	if !r.calls[k] {
		r.calls[k] = true
		r.changed = true
	}
	r.makeReachable(callee)
	for i, a := range inv.Args {
		r.flow(r.set(callee.Params[i]), r.set(a), nil)
	}
	if inv.LHS != nil && callee.RetVar != nil {
		r.flow(r.set(inv.LHS), r.set(callee.RetVar), nil)
	}
	r.flow(r.excSet(inv.In), r.excSet(callee), nil)
}

func refLabels(s refSet) []string {
	out := make([]string, 0, len(s))
	for o := range s {
		out = append(out, o.Label)
	}
	sort.Strings(out)
	return out
}

func objLabels(objs []*pta.Obj) []string {
	out := make([]string, 0, len(objs))
	for _, o := range objs {
		out = append(out, o.Rep.Label)
	}
	sort.Strings(out)
	return out
}

// assertMatchesReference compares pta.Solve's context-insensitive
// allocation-site result on prog with the reference fixpoint: reachable
// methods, every variable's points-to set, every non-empty field
// points-to set, and the call graph.
func assertMatchesReference(t *testing.T, name string, prog *lang.Program) {
	t.Helper()
	ref := solveReference(prog)
	res, err := pta.Solve(prog, pta.Options{})
	if err != nil {
		t.Fatalf("%s: Solve: %v", name, err)
	}
	for _, m := range prog.Methods {
		if g, w := res.ReachableMethod(m), ref.reach[m]; g != w {
			t.Fatalf("%s: %s reachable %t, reference %t", name, m, g, w)
		}
		for _, v := range m.Locals {
			if g, w := objLabels(res.VarObjs(v)), refLabels(ref.set(v)); !slices.Equal(g, w) {
				t.Fatalf("%s: pts(%s)\n solver:    %v\n reference: %v", name, v, g, w)
			}
		}
		if !m.HasExcVar() && len(ref.exc[m]) > 0 {
			t.Fatalf("%s: %s has no $exc, reference throws %v", name, m, refLabels(ref.exc[m]))
		}
	}

	got := map[string][]string{}
	res.FieldPointsTo(func(base *pta.Obj, f *lang.Field, targets []*pta.Obj) {
		if len(targets) > 0 {
			got[base.Rep.Label+"."+f.String()] = objLabels(targets)
		}
	})
	want := map[string][]string{}
	for k, s := range ref.fields {
		if len(s) > 0 {
			want[k.site.Label+"."+k.field.String()] = refLabels(s)
		}
	}
	for k, w := range want {
		if g := got[k]; !slices.Equal(g, w) {
			t.Fatalf("%s: pts(%s)\n solver:    %v\n reference: %v", name, k, g, w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("%s: pts(%s) = %v, empty in the reference", name, k, g)
		}
	}

	var gotCalls, wantCalls []string
	for _, e := range res.CallGraphEdges() {
		gotCalls = append(gotCalls, e.Site.Label()+" -> "+e.Callee.String())
	}
	for k := range ref.calls {
		wantCalls = append(wantCalls, k.inv.Label()+" -> "+k.callee.String())
	}
	sort.Strings(gotCalls)
	sort.Strings(wantCalls)
	if !slices.Equal(gotCalls, wantCalls) {
		t.Fatalf("%s: call graphs differ: %d edges, reference %d", name, len(gotCalls), len(wantCalls))
	}
}

func parseIRFiles(t *testing.T, pattern string) map[string]*lang.Program {
	t.Helper()
	paths, err := filepath.Glob(pattern)
	if err != nil || len(paths) == 0 {
		t.Fatalf("%s: %v (%d files)", pattern, err, len(paths))
	}
	out := map[string]*lang.Program{}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, err := parser.Parse(path, string(src))
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(path, ".ir")] = p
	}
	return out
}

// TestReferenceSolver compares the solver with the reference on the
// example programs, the adversarial corpus and random programs.
func TestReferenceSolver(t *testing.T) {
	progs := parseIRFiles(t, "../../examples/*/*.ir")
	for name, p := range parseIRFiles(t, "../../testdata/corpus/*.ir") {
		progs[name] = p
	}
	for seed := int64(1); seed <= 40; seed++ {
		progs[fmt.Sprintf("random/%d", seed)] = synth.RandomProgram(seed)
	}
	for name, p := range progs {
		assertMatchesReference(t, name, p)
	}
}

// TestReferenceSolverAllSubjects runs the comparison over every
// benchmark subject; it is slow and runs only under MAHJONG_SLOWCHECK.
func TestReferenceSolverAllSubjects(t *testing.T) {
	if os.Getenv("MAHJONG_SLOWCHECK") == "" {
		t.Skip("set MAHJONG_SLOWCHECK=1 to run the reference solver over every subject")
	}
	for _, name := range synth.ProfileNames() {
		t.Run(name, func(t *testing.T) {
			prof, err := synth.ProfileByName(name)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesReference(t, name, synth.MustGenerate(prof))
		})
	}
}
