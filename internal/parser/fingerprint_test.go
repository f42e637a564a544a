package parser_test

// Golden parse fingerprints: for every IR text the repository ships
// (the twelve subjects as printed from their synth profiles, the
// adversarial corpus, the luindex dump and the examples), Parse must
// create classes, fields, methods, variables, allocation sites and
// invokes in exactly the recorded order. IDs and site labels feed every
// solver fingerprint and the MOM signatures, so a parser that builds
// the same program in a different order is a different parser.
// Regenerate (only for an intended change of creation order) with
//
//	go test ./internal/parser -run TestParseFingerprints -update-parse-fingerprints

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mahjong/internal/lang"
	"mahjong/internal/parser"
	"mahjong/internal/synth"
)

var updateParseFingerprints = flag.Bool("update-parse-fingerprints", false, "rewrite testdata/parse_fingerprints.json from the current run")

const parseFingerprintFile = "testdata/parse_fingerprints.json"

// parseFingerprint pins the creation order of one parsed program.
type parseFingerprint struct {
	Classes int    `json:"classes"`
	Fields  int    `json:"fields"`
	Methods int    `json:"methods"`
	Sites   int    `json:"sites"`
	Stmts   int    `json:"stmts"`
	Hash    string `json:"hash"`
}

// parseInputs returns every shipped IR text, keyed by a stable name.
func parseInputs(t *testing.T) map[string]string {
	t.Helper()
	in := make(map[string]string)
	for _, p := range synth.Profiles() {
		prog, err := synth.Generate(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p.Name, err)
		}
		in["subject/"+p.Name] = parser.Print(prog)
	}
	for _, pattern := range []string{
		"../../testdata/corpus/*.ir",
		"testdata/*.ir",
		"../../examples/*/*.ir",
	} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			in[strings.TrimPrefix(filepath.ToSlash(f), "../../")] = string(data)
		}
	}
	return in
}

// fingerprintProgram hashes the program's tables in creation order.
func fingerprintProgram(p *lang.Program) parseFingerprint {
	h := sha256.New()
	fp := parseFingerprint{Classes: len(p.Classes), Fields: len(p.Fields), Methods: len(p.Methods), Sites: len(p.Sites)}
	for _, c := range p.Classes {
		fmt.Fprintf(h, "C %d %s\n", c.ID, c.Name)
	}
	for _, f := range p.Fields {
		fmt.Fprintf(h, "F %d %s %s %s %t\n", f.ID, f.Owner.Name, f.Name, f.Type.Name, f.IsStatic)
	}
	for _, m := range p.Methods {
		fmt.Fprintf(h, "M %d %s static=%t abstract=%t\n", m.ID, m, m.IsStatic, m.IsAbstract)
		for _, v := range m.Locals {
			fmt.Fprintf(h, "  V %d %s %s\n", v.Index, v.Name, v.Type.Name)
		}
		for _, st := range m.Stmts {
			fp.Stmts++
			writeStmt(h, st)
		}
	}
	for _, s := range p.Sites {
		fmt.Fprintf(h, "S %d %s\n", s.ID, s.Label)
	}
	fmt.Fprintf(h, "E %s\n", p.Entry)
	fp.Hash = hex.EncodeToString(h.Sum(nil))
	return fp
}

func writeStmt(h hash.Hash, st lang.Stmt) {
	kind := reflect.TypeOf(st).Elem().Name()
	switch st := st.(type) {
	case *lang.Alloc:
		fmt.Fprintf(h, "  %s %s\n", kind, st.Site.Label)
	case *lang.Invoke:
		fmt.Fprintf(h, "  %s %d %s\n", kind, st.ID, parser.StmtText(st))
	default:
		fmt.Fprintf(h, "  %s %s\n", kind, parser.StmtText(st))
	}
}

// TestParseFingerprints parses every shipped IR text and compares the
// creation order of its tables with the golden record.
func TestParseFingerprints(t *testing.T) {
	got := make(map[string]parseFingerprint)
	for name, src := range parseInputs(t) {
		prog, err := parser.Parse(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = fingerprintProgram(prog)
	}
	if *updateParseFingerprints {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parseFingerprintFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), parseFingerprintFile)
		return
	}
	data, err := os.ReadFile(parseFingerprintFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-parse-fingerprints)", err)
	}
	var want map[string]parseFingerprint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: recorded but no longer an input", name)
			continue
		}
		if g != want[name] {
			t.Errorf("%s: parse fingerprint\n got %+v\nwant %+v", name, g, want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d inputs, %d recorded", len(got), len(want))
	}
}
