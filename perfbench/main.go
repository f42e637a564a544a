// Command perfbench is the repository's benchmark: it runs one workload
// of the Mahjong pipeline users run — the facade behind cmd/mahjong, or
// mahjongd over HTTP — prints every metric by name with its unit, and
// checks every output.
//
//	go run . --workload merge-heavy --seed 0 --seconds 15 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	merge-heavy  parse → BuildAbstraction → Analyze M-3obj over the
//	             mid-tier subjects (checkstyle, pmd, xalan, chart, bloat)
//	daemon-mix   in-process mahjongd with 2 closed-loop HTTP clients
//	             submitting IR jobs over a warmed abstraction cache
//	edit-loop    seeded sessions of one-method edits of a checkstyle-shaped
//	             subject, each BuildAbstractionDelta(prev) + Analyze M-2obj;
//	             not in BENCHMARK.json, as its warm = cold check fails on
//	             some seeds (see editloop.go)
//
// --trace 0 measures the end-to-end metrics through the public facade
// (or mahjongd's HTTP surface) with no tracing; time-valued metrics are
// reported at reference machine speed (see speed.go). --trace 1 runs the
// layered replica instead, one span per layer call, and reports
// per-layer metrics; its spans are written under .bench_build/traces.
//
// Every run executes a fixed, seeded sequence of operations in whole
// rounds until --seconds have passed (at least one round). The seed
// offsets each synthetic profile's seed, so seed 0 reproduces the
// published subjects. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig selects and sizes one run.
type runConfig struct {
	seed int64
	// seconds is the measurement window; rounds start until it has
	// passed, so 0 runs exactly one round.
	seconds float64
	traced  bool
	// setupReps is how many times set-up is repeated; setup_s is the
	// median.
	setupReps int
	// samples is the oracle's sample of unmerged representative pairs.
	samples int
}

// runResult is what a workload reports.
type runResult struct {
	attempted, failed int
	// problems lists every failed operation and failed output check.
	problems []string
	metrics  map[string]metric
	// lines are human-readable notes printed before the result.
	lines []string
	spans []span
	// speed times the reference kernel over the run (see speed.go).
	speed speedProbe
}

func (r *runResult) problem(format string, args ...any) {
	if len(r.problems) < 1000 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *runResult) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// correct reports whether every operation succeeded and every output
// check passed.
func (r *runResult) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

var workloads = map[string]func(context.Context, runConfig) (*runResult, error){
	"merge-heavy": runMergeHeavy,
	"edit-loop":   runEditLoop,
	"daemon-mix":  runDaemonMix,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: merge-heavy, edit-loop or daemon-mix")
		seed     = flag.Int64("seed", 0, "workload seed; 0 reproduces the published subjects")
		seconds  = flag.Float64("seconds", 10, "measurement window in seconds (whole rounds; 0 = one round)")
		traceOn  = flag.Int("trace", 0, "1 runs the traced layered replica and reports per-layer metrics")
		root     = flag.String("root", ".", "root of the checkout (for the source hash and trace output)")
		commit   = flag.String("commit", "", "commit of the checkout, when known")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || (*traceOn != 0 && *traceOn != 1) || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload merge-heavy|edit-loop|daemon-mix, --trace 0|1 and --seconds >= 0")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *traceOn == 1, setupReps: 5, samples: 200}
	env := stamp(*root, *commit, *workload, *seed, cfg.traced)
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	if cfg.traced {
		path, err := writeTrace(filepath.Join(*root, ".bench_build", "traces"), env, res.spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans %d written to %s\n", len(res.spans), path)
	}
	for _, l := range res.lines {
		fmt.Println(l)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.4f %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	fmt.Printf("fail_share %.4f (%d failed of %d attempted)\n", float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted)
	for _, p := range res.problems {
		fmt.Printf("FAIL %s\n", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
