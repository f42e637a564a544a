package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mahjong"
	"mahjong/internal/clients"
	"mahjong/internal/delta"
	"mahjong/internal/lang"
	"mahjong/internal/parser"
	"mahjong/internal/pta"
)

// An Axis is one A/B comparison the differential harness runs a program
// through. Check analyzes the program both ways and returns a non-empty
// divergence description when the axis' oracle is violated; an error
// means the comparison itself could not run (infrastructure failure,
// not a divergence).
type Axis interface {
	Name() string
	Check(ctx context.Context, prog *lang.Program) (string, error)
}

// StandardAxes returns the two A/B axes:
//
//   - mahjong-vs-allocsite: an *ordering* oracle. The merged heap must
//     over-approximate the allocation-site baseline on the monotone
//     clients (call graph, casts, reachability, escape, taint);
//     nullness is exempt because it is not monotone under merging (see
//     clients.MayNullLoads).
//   - warm-vs-cold incremental: an *equality* oracle — the repo
//     documents warm and cold solves as result-identical, so any
//     observable difference in metrics or result projections is a bug.
func StandardAxes() []Axis {
	return []Axis{heapAxis{}, incrementalAxis{}}
}

// Divergence is one axis failure, with the shrunken reproducer when
// RunAndShrink produced one.
type Divergence struct {
	Axis         string
	Detail       string
	Reproducer   *lang.Program
	ReproducerIR string
}

// RunDifferential checks prog on every axis and collects divergences.
func RunDifferential(ctx context.Context, prog *lang.Program, axes []Axis) ([]Divergence, error) {
	var out []Divergence
	for _, ax := range axes {
		detail, err := ax.Check(ctx, prog)
		if err != nil {
			return out, fmt.Errorf("axis %s: %w", ax.Name(), err)
		}
		if detail != "" {
			out = append(out, Divergence{Axis: ax.Name(), Detail: detail})
		}
	}
	return out, nil
}

// RunAndShrink is RunDifferential plus automatic reproducer
// minimization: each divergence is shrunk to the smallest program on
// which its axis still diverges.
func RunAndShrink(ctx context.Context, prog *lang.Program, axes []Axis, so ShrinkOptions) ([]Divergence, error) {
	divs, err := RunDifferential(ctx, prog, axes)
	if err != nil {
		return divs, err
	}
	byName := map[string]Axis{}
	for _, ax := range axes {
		byName[ax.Name()] = ax
	}
	for i := range divs {
		ax := byName[divs[i].Axis]
		small := Shrink(prog, func(q *lang.Program) bool {
			d, err := ax.Check(ctx, q)
			return err == nil && d != ""
		}, so)
		divs[i].Reproducer = small
		divs[i].ReproducerIR = parser.Print(small)
	}
	return divs, nil
}

// ---- axis: Mahjong vs allocation-site (ordering oracle) ----

type heapAxis struct{}

func (heapAxis) Name() string { return "mahjong-vs-allocsite" }

func (heapAxis) Check(ctx context.Context, prog *lang.Program) (string, error) {
	base, err := mahjong.AnalyzeContext(ctx, prog, mahjong.Config{Analysis: "ci", Heap: mahjong.HeapAllocSite})
	if err != nil {
		return "", err
	}
	abs, err := mahjong.BuildAbstractionContext(ctx, prog, mahjong.AbstractionOptions{})
	if err != nil {
		return "", err
	}
	merged, err := mahjong.AnalyzeContext(ctx, prog, mahjong.Config{Analysis: "ci", Heap: mahjong.HeapMahjong, Abstraction: abs})
	if err != nil {
		return "", err
	}
	a, m := base.Metrics, merged.Metrics
	type ord struct {
		name     string
		lo, hi   int
		strictly string // which side must not exceed the other
	}
	checks := []ord{
		{"CallGraphEdges", a.CallGraphEdges, m.CallGraphEdges, "allocsite<=mahjong"},
		{"PolyCallSites", a.PolyCallSites, m.PolyCallSites, "allocsite<=mahjong"},
		{"MayFailCasts", a.MayFailCasts, m.MayFailCasts, "allocsite<=mahjong"},
		{"Reachable", a.Reachable, m.Reachable, "allocsite<=mahjong"},
		{"EscapingSites", a.EscapingSites, m.EscapingSites, "allocsite<=mahjong"},
		{"TaintSinks", a.TaintSinks, m.TaintSinks, "allocsite<=mahjong"},
		{"TaintedSinks", a.TaintedSinks, m.TaintedSinks, "allocsite<=mahjong"},
		{"StackAllocSites", m.StackAllocSites, a.StackAllocSites, "mahjong<=allocsite"},
	}
	for _, c := range checks {
		if c.lo > c.hi {
			return fmt.Sprintf("%s ordering violated (%s): %d vs %d", c.name, c.strictly, c.lo, c.hi), nil
		}
	}
	// Set-level soundness: every escaping site and tainted sink of the
	// baseline must survive the merge.
	if d := subsetOf("EscapingSites", escapeLabels(base.Result()), escapeLabels(merged.Result())); d != "" {
		return d, nil
	}
	if d := subsetOf("TaintedSinks", sinkLabels(base.Result()), sinkLabels(merged.Result())); d != "" {
		return d, nil
	}
	// Type-set soundness per variable (the pointed-to *type* sets are
	// what the paper proves near-lossless): baseline subset of merged.
	for _, meth := range prog.Methods {
		if meth.IsAbstract || !base.Result().ReachableMethod(meth) {
			continue
		}
		for _, v := range meth.Locals {
			bt := typeNames(base.Result().VarTypes(v))
			mt := typeNames(merged.Result().VarTypes(v))
			if d := subsetOf("VarTypes("+v.String()+")", bt, mt); d != "" {
				return d, nil
			}
		}
	}
	return "", nil
}

// ---- axis: warm vs cold incremental (equality oracle) ----

type incrementalAxis struct{}

func (incrementalAxis) Name() string { return "warm-vs-cold" }

func (incrementalAxis) Check(ctx context.Context, prog *lang.Program) (string, error) {
	edited, _, err := delta.RandomEdit(prog, rand.New(rand.NewSource(11)))
	if err != nil {
		// Some minimal programs admit no edit; the axis is then vacuous.
		return "", nil
	}
	var opts mahjong.AbstractionOptions
	_, state, _, err := mahjong.BuildAbstractionDelta(ctx, prog, opts, nil)
	if err != nil {
		return "", err
	}
	warmAbs, _, _, err := mahjong.BuildAbstractionDelta(ctx, edited, opts, state)
	if err != nil {
		return "", err
	}
	coldAbs, err := mahjong.BuildAbstractionContext(ctx, edited, opts)
	if err != nil {
		return "", err
	}
	if d := firstDiff("warm", momSignature(warmAbs), "cold", momSignature(coldAbs)); d != "" {
		return "abstraction " + d, nil
	}
	warm, err := analysisSignature(ctx, edited, mahjong.Config{Analysis: "ci", Heap: mahjong.HeapMahjong, Abstraction: warmAbs})
	if err != nil {
		return "", err
	}
	cold, err := analysisSignature(ctx, edited, mahjong.Config{Analysis: "ci", Heap: mahjong.HeapMahjong, Abstraction: coldAbs})
	if err != nil {
		return "", err
	}
	return firstDiff("warm", warm, "cold", cold), nil
}

// ---- shared projections ----

// analysisSignature runs one configuration and renders every client
// observation into a deterministic multi-line string, so equality axes
// compare results without caring about internal numbering.
func analysisSignature(ctx context.Context, prog *lang.Program, cfg mahjong.Config) (string, error) {
	rep, err := mahjong.AnalyzeContext(ctx, prog, cfg)
	if err != nil {
		return "", err
	}
	r := rep.Result()
	var b strings.Builder
	fmt.Fprintf(&b, "metrics %+v\n", rep.Metrics)
	for _, l := range escapeLabels(r) {
		fmt.Fprintf(&b, "escape %s\n", l)
	}
	for _, l := range mayNullLabels(r) {
		fmt.Fprintf(&b, "maynull %s\n", l)
	}
	for _, l := range sinkLabels(r) {
		fmt.Fprintf(&b, "tainted %s\n", l)
	}
	for _, e := range r.CallGraphEdges() {
		fmt.Fprintf(&b, "edge %s -> %s\n", e.Site.Label(), e.Callee)
	}
	for _, meth := range prog.Methods {
		if meth.IsAbstract || !r.ReachableMethod(meth) {
			continue
		}
		for _, v := range meth.Locals {
			fmt.Fprintf(&b, "var %s : %s\n", v, strings.Join(typeNames(r.VarTypes(v)), ","))
		}
	}
	return b.String(), nil
}

func momSignature(abs *mahjong.Abstraction) string {
	lines := make([]string, 0, len(abs.MOM))
	for site, rep := range abs.MOM {
		lines = append(lines, site.Label+" => "+rep.Label)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func escapeLabels(r *pta.Result) []string {
	esc := clients.Escape(r)
	out := make([]string, 0, len(esc.Escaping))
	for _, s := range esc.Escaping {
		out = append(out, s.Label)
	}
	return out
}

func mayNullLabels(r *pta.Result) []string {
	loads := clients.MayNullLoads(r)
	out := make([]string, 0, len(loads))
	for _, l := range loads {
		out = append(out, l.String())
	}
	return out
}

func sinkLabels(r *pta.Result) []string {
	sinks := clients.TaintedSinks(r)
	out := make([]string, 0, len(sinks))
	for _, inv := range sinks {
		out = append(out, inv.Label())
	}
	return out
}

func typeNames(cs []*lang.Class) []string {
	out := make([]string, 0, len(cs))
	for _, c := range cs {
		out = append(out, c.Name)
	}
	sort.Strings(out)
	return out
}

// subsetOf reports "" when a is a subset of b, else a description
// naming the first missing element.
func subsetOf(what string, a, b []string) string {
	in := make(map[string]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	for _, x := range a {
		if !in[x] {
			return fmt.Sprintf("%s not over-approximated: %q present in baseline, missing after merge", what, x)
		}
	}
	return ""
}

// firstDiff reports "" when the signatures agree, else the first
// differing line of each side.
func firstDiff(an, a, bn, b string) string {
	if a == b {
		return ""
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return fmt.Sprintf("results differ at line %d: %s=%q, %s=%q", i, an, x, bn, y)
		}
	}
	return "results differ (length only)"
}
