package parser_test

// Golden print fingerprints: the SHA-256 of Print's output for the
// twelve subjects (as generated from their synth profiles) and the
// adversarial corpus (as parsed), plus the hashes of every method's
// MethodText and every class's ClassShape. mahjongd keys its
// abstraction cache and internal/delta keys its units on this text, so
// a printer that renders any program differently is a different cache
// and a different diff. Regenerate (only for an intended change of the
// canonical form) with
//
//	go test ./internal/parser -run TestPrintFingerprints -update-print-fingerprints

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mahjong/internal/lang"
	"mahjong/internal/parser"
	"mahjong/internal/synth"
)

var updatePrintFingerprints = flag.Bool("update-print-fingerprints", false, "rewrite testdata/print_fingerprints.json from the current run")

const printFingerprintFile = "testdata/print_fingerprints.json"

// printFingerprint pins the canonical text of one program.
type printFingerprint struct {
	Print   string `json:"print"`   // SHA-256 of Print(p)
	Methods string `json:"methods"` // SHA-256 of every MethodText, in p.Methods order
	Shapes  string `json:"shapes"`  // SHA-256 of every ClassShape, in p.Classes order
}

// printInputs returns the twelve subjects and the corpus programs,
// keyed by a stable name.
func printInputs(t testing.TB) map[string]*lang.Program {
	t.Helper()
	in := make(map[string]*lang.Program)
	for _, p := range synth.Profiles() {
		prog, err := synth.Generate(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p.Name, err)
		}
		in["subject/"+p.Name] = prog
	}
	files, err := filepath.Glob("../../testdata/corpus/*.ir")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.Parse(f, string(data))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		in[strings.TrimPrefix(filepath.ToSlash(f), "../../")] = prog
	}
	return in
}

func sumHex(write func(io.Writer)) string {
	h := sha256.New()
	write(h)
	return hex.EncodeToString(h.Sum(nil))
}

func fingerprintPrint(p *lang.Program) printFingerprint {
	return printFingerprint{
		Print: sumHex(func(w io.Writer) { io.WriteString(w, parser.Print(p)) }),
		Methods: sumHex(func(w io.Writer) {
			for _, m := range p.Methods {
				io.WriteString(w, parser.MethodText(m))
			}
		}),
		Shapes: sumHex(func(w io.Writer) {
			for _, c := range p.Classes {
				io.WriteString(w, parser.ClassShape(c))
			}
		}),
	}
}

// TestPrintFingerprints compares the canonical text of every subject
// and corpus program with the golden record.
func TestPrintFingerprints(t *testing.T) {
	got := make(map[string]printFingerprint)
	for name, prog := range printInputs(t) {
		got[name] = fingerprintPrint(prog)
	}
	if *updatePrintFingerprints {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(printFingerprintFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d fingerprints to %s", len(got), printFingerprintFile)
		return
	}
	data, err := os.ReadFile(printFingerprintFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-print-fingerprints)", err)
	}
	var want map[string]printFingerprint
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
			t.Errorf("%s: print fingerprint\n got %+v\nwant %+v", name, g, want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d inputs, %d recorded", len(got), len(want))
	}
}

// TestWriteProgramMatchesPrint streams every input into SHA-256 and
// checks the digest against Print's text: the streamed form is exactly
// the canonical text mahjongd's cache key and the goldens hash.
func TestWriteProgramMatchesPrint(t *testing.T) {
	for name, prog := range printInputs(t) {
		h := sha256.New()
		if err := parser.WriteProgram(h, prog); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := sha256.Sum256([]byte(parser.Print(prog))); string(h.Sum(nil)) != string(want[:]) {
			t.Errorf("%s: streamed digest differs from Print's", name)
		}
	}
}

// failWriter accepts n writes, then fails every later one.
type failWriter struct{ n int }

var errWrite = errors.New("write failed")

func (w *failWriter) Write(b []byte) (int, error) {
	if w.n == 0 {
		return 0, errWrite
	}
	w.n--
	return len(b), nil
}

func TestWriteProgramReportsWriteError(t *testing.T) {
	prog := printInputs(t)["subject/luindex"]
	if err := parser.WriteProgram(&failWriter{n: 2}, prog); !errors.Is(err, errWrite) {
		t.Fatalf("WriteProgram into a failing writer: err = %v, want %v", err, errWrite)
	}
}

// TestWriteProgramAllocs pins that streaming a program allocates a
// fixed number of objects whatever its size: luindex and checkstyle
// (about four times its text) read the same count, one: the buffer.
func TestWriteProgramAllocs(t *testing.T) {
	in := printInputs(t)
	allocs := func(name string) float64 {
		prog := in["subject/"+name]
		h := sha256.New()
		return testing.AllocsPerRun(5, func() {
			h.Reset()
			if err := parser.WriteProgram(h, prog); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs("luindex"), allocs("checkstyle")
	if small != large || large > 1 {
		t.Fatalf("WriteProgram allocations: luindex %v, checkstyle %v; want equal and at most 1", small, large)
	}
}

// TestAppendMethodReusesBuffer pins that appending every method of a
// program into one buffer allocates nothing once the buffer has grown
// to the largest method.
func TestAppendMethodReusesBuffer(t *testing.T) {
	prog := printInputs(t)["subject/checkstyle"]
	var buf []byte
	run := func() {
		for _, m := range prog.Methods {
			buf = parser.AppendMethod(buf[:0], m)
		}
		for _, c := range prog.Classes {
			buf = parser.AppendClassShape(buf[:0], c)
		}
	}
	run()
	if n := testing.AllocsPerRun(5, run); n != 0 {
		t.Fatalf("AppendMethod/AppendClassShape over %d methods: %v allocations per run, want 0", len(prog.Methods), n)
	}
}

// The printer's cost on the largest daemon-mix subject: Print builds
// the text, WriteProgramSHA256 streams it into SHA-256 as mahjongd's
// cache key does.
//
//	go test ./internal/parser -run '^$' -bench 'Print|WriteProgram' -benchmem

// printSink keeps the benchmarked results live.
var printSink string

func BenchmarkPrint(b *testing.B) {
	prog := printInputs(b)["subject/checkstyle"]
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		printSink = parser.Print(prog)
	}
}

func BenchmarkWriteProgramSHA256(b *testing.B) {
	prog := printInputs(b)["subject/checkstyle"]
	h := sha256.New()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		h.Reset()
		if err := parser.WriteProgram(h, prog); err != nil {
			b.Fatal(err)
		}
		printSink = string(h.Sum(nil))
	}
}
