// mahjongvet is the project's invariant checker: a multichecker running the
// internal/lint analyzer suite over the module.
//
//	mahjongvet [-run ctxflow,stagehook] [-json] [-list] [packages]
//
// With no package patterns it checks ./... . Diagnostics print one per line
// as file:line:col: message [analyzer], sorted by (file, line, column,
// analyzer) so output is byte-stable across runs; -json emits the same
// sorted findings as a JSON array for CI tooling. The exit status is 1 when
// any diagnostic is reported, 2 on a usage or load error.
//
// The seven analyzers enforce invariants the compiler cannot see and the
// paper's soundness argument depends on — threaded cancellation (ctxflow),
// panic-recovery seams (recoverseam), borrowed-bitset discipline
// (bitsetalias), deterministic persist/export output (mapdeterminism),
// agreement of the stage registries (stagehook) — plus the dataflow suite
// built on internal/lint/flow: sync/atomic access consistency (atomicmix)
// and scheduler slot / trace span balance (slotbalance). See docs/LINT.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mahjong/internal/lint"
)

// jsonDiag is the -json wire form of one finding: a flat record with the
// fields CI annotates from, stable under field addition.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	var (
		runList  = flag.String("run", "", "comma-separated subset of analyzers to run (default: all)")
		listOnly = flag.Bool("list", false, "list the analyzers and exit")
		jsonOut  = flag.Bool("json", false, "emit findings as a JSON array instead of plain lines")
	)
	flag.Parse()

	all := lint.Analyzers()
	if *listOnly {
		for _, a := range all {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *runList != "" {
		byName := make(map[string]*lint.Analyzer, len(all))
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*runList, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "mahjongvet: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mahjongvet: %v\n", err)
		os.Exit(2)
	}
	diags := lint.RunAnalyzers(pkgs, analyzers, false)
	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags)) // empty array, not null, on a clean run
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Check,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "mahjongvet: encoding findings: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mahjongvet: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
