// Command synthgen dumps generated benchmark programs as textual IR, so
// they can be inspected, archived, or re-analyzed through `mahjong -in`,
// and regenerates the adversarial search corpus:
//
//	synthgen -benchmark=luindex > luindex.ir
//	synthgen -list
//	synthgen -random -seed=7 -stmts=40 > random.ir
//	synthgen -search -seed=1 -out=testdata/corpus
//	synthgen -search -seed=1 -scale=10 -out=/tmp/corpus10x
//
// All output is deterministic in the flags alone: the same seed yields
// byte-for-byte identical programs across runs and GOMAXPROCS values
// (see main_test.go), which is what makes the committed corpus
// reviewable.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mahjong"
	"mahjong/internal/parser"
	"mahjong/internal/scenario"
	"mahjong/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "synthgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("synthgen", flag.ContinueOnError)
	benchName := fs.String("benchmark", "", "benchmark to dump")
	list := fs.Bool("list", false, "list available benchmarks")
	seed := fs.Int64("seed", 1, "deterministic seed for -random and -search")
	random := fs.Bool("random", false, "dump a random property-test program for -seed")
	stmts := fs.Int("stmts", -1, "with -random: exact statement budget (default: derived from seed)")
	search := fs.Bool("search", false, "regenerate the adversarial corpus into -out")
	scale := fs.Int("scale", 1, "with -search: motif-count multiplier (10+ for the scale tier)")
	out := fs.String("out", "testdata/corpus", "with -search: output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *list:
		for _, n := range mahjong.BenchmarkNames() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	case *random:
		var prog *mahjong.Program
		if *stmts >= 0 {
			prog = synth.RandomProgramSized(*seed, *stmts)
		} else {
			prog = synth.RandomProgram(*seed)
		}
		return parser.WriteProgram(stdout, prog)
	case *search:
		gens, err := scenario.GenerateCorpus(*seed, *scale)
		if err != nil {
			return err
		}
		if err := scenario.WriteCorpus(*out, *seed, *scale, gens); err != nil {
			return err
		}
		for _, g := range gens {
			fmt.Fprintf(stdout, "%s: %d stmts (spec %+v)\n", g.Entry.File, g.Entry.Stmts, g.Entry.Spec)
		}
		fmt.Fprintf(stdout, "wrote %d programs + manifest.json to %s\n", len(gens), *out)
		return nil
	case *benchName != "":
		prog, err := mahjong.GenerateBenchmark(*benchName)
		if err != nil {
			return err
		}
		return parser.WriteProgram(stdout, prog)
	}
	return fmt.Errorf("nothing to do: pass -benchmark, -list, -random or -search (available benchmarks: %v)", mahjong.BenchmarkNames())
}
