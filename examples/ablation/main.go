// Ablation: the §3.6.2 design choices, measured.
//
// This example builds the Mahjong abstraction for one benchmark under
// each ablation knob exposed by the public API and reports modeling
// time and the resulting heap. Type-diverse representatives keep the
// classes and only re-elect their representatives; the null-node knob
// changes the abstraction itself (Example 3.1's trade-off).
//
// Run with: go run ./examples/ablation
package main

import (
	"fmt"
	"log"

	"mahjong"
)

func main() {
	prog, err := mahjong.GenerateBenchmark("checkstyle")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("benchmark: checkstyle")
	fmt.Println()

	configs := []struct {
		label string
		opts  mahjong.AbstractionOptions
	}{
		{"default", mahjong.AbstractionOptions{}},
		{"type-diverse representatives", mahjong.AbstractionOptions{TypeDiverseReps: true}},
		{"null node omitted", mahjong.AbstractionOptions{OmitNullNode: true}},
	}
	for _, c := range configs {
		abs, err := mahjong.BuildAbstraction(prog, c.opts)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := mahjong.Analyze(prog, mahjong.Config{
			Analysis: "2obj", Heap: mahjong.HeapMahjong, Abstraction: abs,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36s modeling=%-9v objects %d->%d  | M-2obj: edges=%d poly=%d casts=%d\n",
			c.label, abs.ModelTime.Round(1e5), abs.Objects, abs.MergedObjects,
			rep.Metrics.CallGraphEdges, rep.Metrics.PolyCallSites, rep.Metrics.MayFailCasts)
	}
	fmt.Println()
	fmt.Println("Type-diverse representatives leave the classes unchanged; only the")
	fmt.Println("null-node knob may alter the merge (coarser, at the Example 3.1")
	fmt.Println("precision risk).")
}
