package integration

// Golden solver fingerprints: for the twelve benchmark subjects and the
// committed adversarial corpus, the pre-analysis, the FPG, the heap
// modeler and a context-sensitive main solve must reproduce the recorded
// sizes and output hashes exactly. The warm-vs-cold incremental A/B
// axis shares the solver's node and object tables, so a layout bug in
// those tables would pass it; these fingerprints were recorded from an
// independent earlier implementation and pin the results themselves.
// TestContextSensitiveFingerprints pins alloc-site 3obj, 2type and 2cs
// solves the same way, over three subjects and the corpus: they exercise
// the solver's per-context node tables and context derivation.
// Regenerate (only for an intended result change) with
//
//	go test ./internal/integration -run Fingerprints -update-fingerprints

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mahjong"
	"mahjong/internal/core"
	"mahjong/internal/fpg"
	"mahjong/internal/lang"
	"mahjong/internal/pta"
	"mahjong/internal/scenario"
)

var updateFingerprints = flag.Bool("update-fingerprints", false, "rewrite the fingerprint golden files from the current run")

const (
	fingerprintFile   = "testdata/fingerprints.json"
	csFingerprintFile = "testdata/cs_fingerprints.json"
)

// solveFingerprint pins one solver run.
type solveFingerprint struct {
	Nodes            int    `json:"nodes"`
	CSObjs           int    `json:"cs_objs"`
	CSMethods        int    `json:"cs_methods"`
	CallGraphEdges   int    `json:"call_graph_edges"`
	ReachableMethods int    `json:"reachable_methods"`
	FieldPointsTo    string `json:"field_points_to"` // hash of FieldPointsTo's ordered output
	VarPointsTo      string `json:"var_points_to"`   // hash of every variable's VarObjs
	CallGraph        string `json:"call_graph"`      // hash of CallGraphEdges
}

// programFingerprint pins the whole pipeline over one program.
type programFingerprint struct {
	Pre        solveFingerprint `json:"pre"`
	FieldFacts int64            `json:"fpg_field_facts"` // FieldPointsTo targets summed
	FPGEdges   int              `json:"fpg_edges"`       // FPG targets summed, null edges included
	MOM        string           `json:"mom"`             // merged (site, rep) label pairs, hashed
	Merged     int              `json:"merged_objects"`
	Main       solveFingerprint `json:"main_m2obj"` // M-2obj over the MOM
}

func fingerprintPrograms(t *testing.T) map[string]*lang.Program {
	t.Helper()
	progs := make(map[string]*lang.Program)
	for _, name := range mahjong.BenchmarkNames() {
		p, err := mahjong.GenerateBenchmark(name)
		if err != nil {
			t.Fatalf("benchmark %s: %v", name, err)
		}
		progs[name] = p
	}
	corpus, _, err := scenario.LoadCorpus("../../testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range corpus {
		progs["corpus/"+strings.TrimSuffix(g.Entry.File, ".ir")] = g.Prog
	}
	return progs
}

func hashLine(h hash.Hash, parts ...string) {
	h.Write([]byte(strings.Join(parts, "\x00") + "\n"))
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

func objLabels(objs []*pta.Obj) string {
	ls := make([]string, len(objs))
	for i, o := range objs {
		ls[i] = o.String()
	}
	return strings.Join(ls, ",")
}

func fingerprintSolve(r *pta.Result) (solveFingerprint, int64) {
	fp := solveFingerprint{
		Nodes:            r.NumNodes(),
		CSObjs:           r.NumCSObjs(),
		CSMethods:        r.NumCSMethods(),
		CallGraphEdges:   r.NumCallGraphEdges(),
		ReachableMethods: r.NumReachableMethods(),
	}
	var facts int64
	h := sha256.New()
	r.FieldPointsTo(func(base *pta.Obj, f *lang.Field, targets []*pta.Obj) {
		facts += int64(len(targets))
		hashLine(h, base.String(), f.String(), objLabels(targets))
	})
	fp.FieldPointsTo = hexSum(h)
	h = sha256.New()
	for _, m := range r.Prog.Methods {
		for _, v := range m.Locals {
			if objs := r.VarObjs(v); len(objs) > 0 {
				hashLine(h, v.String(), objLabels(objs))
			}
		}
	}
	fp.VarPointsTo = hexSum(h)
	h = sha256.New()
	for _, e := range r.CallGraphEdges() {
		hashLine(h, fmt.Sprint(e.Site.ID), e.Site.In.String(), e.Callee.String())
	}
	fp.CallGraph = hexSum(h)
	return fp, facts
}

func momSignature(mom map[*lang.AllocSite]*lang.AllocSite) string {
	pairs := make([]string, 0, len(mom))
	for site, rep := range mom {
		if site != rep {
			pairs = append(pairs, site.Label+"\x00"+rep.Label)
		}
	}
	sort.Strings(pairs)
	h := sha256.New()
	for _, p := range pairs {
		hashLine(h, p)
	}
	return hexSum(h)
}

func fingerprintProgram(t *testing.T, prog *lang.Program) programFingerprint {
	t.Helper()
	pre, err := pta.Solve(prog, pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var out programFingerprint
	out.Pre, out.FieldFacts = fingerprintSolve(pre)
	g := fpg.Build(pre, fpg.Options{})
	for _, es := range g.Out {
		for _, e := range es {
			out.FPGEdges += len(e.Targets)
		}
	}
	mom := core.Build(g, core.Options{})
	out.MOM = momSignature(mom.MOM)
	out.Merged = mom.NumMerged
	main, err := pta.Solve(prog, pta.Options{Selector: pta.KObj{K: 2}, Heap: mom.HeapModel()})
	if err != nil {
		t.Fatal(err)
	}
	out.Main, _ = fingerprintSolve(main)
	return out
}

func TestSolverFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline over every subject")
	}
	progs := fingerprintPrograms(t)
	got := make(map[string]programFingerprint, len(progs))
	for name, prog := range progs {
		got[name] = fingerprintProgram(t, prog)
	}
	checkFingerprints(t, fingerprintFile, got)
}

// csFingerprint pins the context-sensitive alloc-site solves of one
// program.
type csFingerprint struct {
	Obj3  solveFingerprint `json:"alloc_3obj"`
	Type2 solveFingerprint `json:"alloc_2type"`
	CS2   solveFingerprint `json:"alloc_2cs"`
}

func TestContextSensitiveFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("context-sensitive solves over three subjects and the corpus")
	}
	progs := fingerprintPrograms(t)
	got := make(map[string]csFingerprint)
	for name, prog := range progs {
		switch name {
		case "luindex", "lusearch", "antlr":
		default:
			if !strings.HasPrefix(name, "corpus/") {
				continue
			}
		}
		solve := func(sel pta.Selector) solveFingerprint {
			r, err := pta.Solve(prog, pta.Options{Selector: sel})
			if err != nil {
				t.Fatalf("%s %s: %v", name, sel.Name(), err)
			}
			fp, _ := fingerprintSolve(r)
			return fp
		}
		got[name] = csFingerprint{
			Obj3:  solve(pta.KObj{K: 3}),
			Type2: solve(pta.KType{K: 2}),
			CS2:   solve(pta.KCFA{K: 2}),
		}
	}
	checkFingerprints(t, csFingerprintFile, got)
}

// checkFingerprints compares got with the golden file, or rewrites the
// file under -update-fingerprints.
func checkFingerprints[F comparable](t *testing.T, file string, got map[string]F) {
	t.Helper()
	if *updateFingerprints {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(filepath.Clean(file))
	if err != nil {
		t.Fatalf("%v (regenerate with -update-fingerprints)", err)
	}
	var want map[string]F
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d programs, run has %d", file, len(want), len(got))
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no recorded fingerprint", name)
			continue
		}
		if g := got[name]; g != w {
			t.Errorf("%s: fingerprint changed\n got  %+v\n want %+v", name, g, w)
		}
	}
}
