package main

// The layered replica of the facade's pipeline, for traced runs: the
// same calls buildPipeline and AnalyzeContext make, issued one layer at
// a time so each call sits in its own span. Traced runs compare every
// replica result with the facade's, which keeps the two from drifting.

import (
	"context"
	"fmt"

	"mahjong/internal/budget"
	"mahjong/internal/clients"
	"mahjong/internal/core"
	"mahjong/internal/delta"
	"mahjong/internal/fpg"
	"mahjong/internal/lang"
	"mahjong/internal/parser"
	"mahjong/internal/pta"
)

// Span names. Every layer call of a traced operation is a direct child
// of the operation's root span; the clients sub-spans nest below
// spanClients.
const (
	spanParser    = "parser"
	spanPre       = "pta.pre"
	spanWarm      = "pta.warm"
	spanDelta     = "delta"
	spanFPG       = "fpg"
	spanCore      = "core"
	spanMain      = "pta.main"
	spanClients   = "clients"
	spanEscape    = "clients.escape"
	spanNullness  = "clients.nullness"
	spanTaint     = "clients.taint"
	spanDispatch  = "clients.dispatch"
	spanCacheLoad = "cache.load"
	spanGlue      = "glue"
)

// layerState is what the replica retains from one abstraction build for
// the next incremental one, mirroring the facade's DeltaState.
type layerState struct {
	prog *lang.Program
	pre  *pta.Result
	res  *core.Result
}

// buildCounts are the work counts of one replica build, taken from the
// layers' return values.
type buildCounts struct {
	pre        pta.Stats
	preRun     bool
	fieldFacts int
	core       *core.Result
	diff       *delta.Diff
	inc        *pta.IncrementalStats
}

// build runs pre-analysis → FPG → heap modeler like the facade's
// buildPipeline. With a base state it first diffs and solves warm, like
// BuildAbstractionDelta. capture keeps merge decisions for a later
// incremental build.
func build(ctx context.Context, rec *recorder, p *lang.Program, base *layerState, capture bool) (*layerState, buildCounts, error) {
	var c buildCounts
	var reuse *core.ReuseState
	if base != nil {
		if err := rec.layer(spanDelta, func() (err error) {
			c.diff, err = delta.Compute(base.prog, p, delta.Options{})
			return err
		}); err != nil {
			return nil, c, fmt.Errorf("delta: %w", err)
		}
		reuse = base.res.ReuseState
	}
	// The facade meters every stage against one resource budget; an
	// unlimited budget yields a nil meter.
	preOpts := pta.Options{Meter: budget.NewMeter(budget.Limits{})}
	var pre *pta.Result
	var err error
	if base != nil {
		err = rec.layer(spanWarm, func() (err error) {
			pre, c.inc, err = pta.SolveIncrementalContext(ctx, p, preOpts, base.pre, c.diff)
			return err
		})
	} else {
		c.preRun = true
		err = rec.layer(spanPre, func() (err error) {
			pre, err = pta.SolveContext(ctx, p, preOpts)
			return err
		})
	}
	if err != nil {
		return nil, c, fmt.Errorf("pre-analysis: %w", err)
	}
	if pre.Aborted {
		return nil, c, fmt.Errorf("pre-analysis aborted")
	}
	c.pre = pre.Stats()
	var g *fpg.Graph
	if err := rec.layer(spanFPG, func() (err error) {
		g, err = fpg.BuildContext(ctx, pre, fpg.Options{Meter: preOpts.Meter})
		return err
	}); err != nil {
		return nil, c, fmt.Errorf("fpg: %w", err)
	}
	_ = rec.layer(spanGlue, func() error {
		for _, es := range g.Out {
			for _, e := range es {
				c.fieldFacts += len(e.Targets)
			}
		}
		return nil
	})
	if err := rec.layer(spanCore, func() (err error) {
		c.core, err = core.BuildContext(ctx, g, core.Options{Meter: preOpts.Meter, Reuse: reuse, CaptureReuse: capture})
		return err
	}); err != nil {
		return nil, c, fmt.Errorf("heap modeling: %w", err)
	}
	return &layerState{prog: p, pre: pre, res: c.core}, c, nil
}

// analyzeCounts are the work counts of one replica analysis.
type analyzeCounts struct {
	main      pta.Stats
	csObjects int
}

// analyze runs the main context-sensitive solve on the Mahjong heap and
// the clients, like the facade's AnalyzeContext, and assembles the
// outcome the checks compare.
func analyze(ctx context.Context, rec *recorder, p *lang.Program, mom map[*lang.AllocSite]*lang.AllocSite, analysis string) (outcome, analyzeCounts, error) {
	var out outcome
	var c analyzeCounts
	sel, err := selector(analysis)
	if err != nil {
		return out, c, err
	}
	var r *pta.Result
	if err := rec.layer(spanMain, func() (err error) {
		r, err = pta.SolveContext(ctx, p, pta.Options{
			Selector: sel,
			Heap:     pta.NewMergedSiteModel(mom),
			Meter:    budget.NewMeter(budget.Limits{}),
		})
		return err
	}); err != nil {
		return out, c, fmt.Errorf("main analysis: %w", err)
	}
	if r.Aborted {
		return out, c, fmt.Errorf("main analysis came back unscalable (work %d)", r.Work)
	}
	c.main, c.csObjects = r.Stats(), r.NumCSObjs()
	var m clients.Metrics
	_ = rec.layer(spanClients, func() error {
		_ = rec.layer(spanDispatch, func() error {
			m.CallGraphEdges = r.NumCallGraphEdges()
			m.PolyCallSites = len(clients.PolyCallSites(r))
			m.MayFailCasts = len(clients.MayFailCasts(r))
			m.Reachable = r.NumReachableMethods()
			return nil
		})
		_ = rec.layer(spanEscape, func() error {
			esc := clients.Escape(r)
			m.EscapingSites, m.StackAllocSites = len(esc.Escaping), len(esc.Stackable)
			return nil
		})
		_ = rec.layer(spanNullness, func() error {
			m.MayNullLoads = len(clients.MayNullLoads(r))
			return nil
		})
		_ = rec.layer(spanTaint, func() error {
			m.TaintedSinks = len(clients.TaintedSinks(r))
			m.TaintSinks = len(clients.TaintSinks(r))
			return nil
		})
		return nil
	})
	out = outcome{Metrics: m, CSObjects: r.NumCSObjs(), Work: r.Work}
	return out, c, nil
}

// parse times the parser on IR text.
func parse(rec *recorder, name, ir string) (*lang.Program, error) {
	var p *lang.Program
	err := rec.layer(spanParser, func() (err error) {
		p, err = parser.Parse(name, ir)
		return err
	})
	return p, err
}

// withAbstraction fills the abstraction fields of an outcome from a
// heap-modeler result; the signature is computed outside any span.
func withAbstraction(o outcome, res *core.Result) outcome {
	o.MOM = momSignature(res.MOM)
	o.Objects, o.Merged = res.NumObjects, res.NumMerged
	return o
}
