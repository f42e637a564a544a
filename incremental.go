package mahjong

// Incremental analysis facade: BuildAbstractionDelta reruns the Figure 5
// pipeline after an edit, warm-seeding the pre-analysis from a retained
// DeltaState's solver (internal/pta.SolveIncrementalContext). FPG
// construction and the heap modeler then run exactly as in a cold
// build: the modeler is cheap next to the pre-analysis, so its merge
// decisions are recomputed rather than replayed. An ineligible or
// fault-injected delta falls back to the cold pre-analysis with a
// recorded reason, never an error the cold path would not also have
// produced.

import (
	"context"
	"fmt"
	"time"

	"mahjong/internal/budget"
	"mahjong/internal/core"
	"mahjong/internal/delta"
	"mahjong/internal/fpg"
	"mahjong/internal/pta"
)

// DeltaState retains, from one abstraction build, what a later
// incremental build starts from: the analyzed program and its
// pre-analysis result, plus the abstraction built from them. Treat it
// as opaque and immutable; it is safe to share between concurrent
// BuildAbstractionDelta calls.
type DeltaState struct {
	// Prog is the program the state was built from — the diff base of
	// the next incremental build.
	Prog *Program
	// Pre is the retained pre-analysis solver state.
	Pre *pta.Result
	// Abs is the abstraction built from Pre. An incremental build does
	// not read it: the heap modeler re-merges from scratch.
	Abs *Abstraction
}

// IncrementalOutcome reports how much of an incremental build was
// actually replayed from the base state.
type IncrementalOutcome struct {
	// Used reports that the pre-analysis was warm-seeded from the base
	// solver; Fallback carries the reason when it was not (and is ""
	// when Used).
	Used     bool
	Fallback string

	// TotalMethods and ChangedMethods describe the diff (zero when no
	// diff was computed).
	TotalMethods, ChangedMethods int
	// SeededFacts counts points-to facts installed from the base solver.
	SeededFacts int64
}

// BuildAbstractionDelta is BuildAbstractionContext against a retained
// base state: the pipeline solves only the edit's consequences and
// returns a fresh DeltaState for the next edit. A nil base (or any
// ineligible delta — shape changes, selector or heap mismatches,
// injected faults in the diff or seeding stages) degrades to a full
// from-scratch build with the reason recorded in the outcome; the
// returned abstraction is bit-for-bit the one the cold path would have
// built either way.
func BuildAbstractionDelta(ctx context.Context, p *Program, opts AbstractionOptions, base *DeltaState) (*Abstraction, *DeltaState, *IncrementalOutcome, error) {
	out := &IncrementalOutcome{}
	var d *delta.Diff
	if base == nil || base.Prog == nil || base.Pre == nil {
		out.Fallback = "no base state"
	} else {
		var err error
		d, err = delta.Compute(base.Prog, p, delta.Options{Trace: opts.Trace})
		if err != nil {
			// The diff stage is advisory: a fault there costs the warm
			// start, not the job.
			d = nil
			out.Fallback = fmt.Sprintf("diff failed: %v", err)
		} else {
			out.TotalMethods = d.TotalMethods
			out.ChangedMethods = len(d.Changed)
		}
	}

	var basePre *pta.Result
	if d != nil {
		basePre = base.Pre
	}
	abs, pre, st, err := buildPipeline(ctx, p, opts, basePre, d)
	if err != nil {
		return nil, nil, nil, err
	}
	if st != nil {
		out.Used = st.Used
		if out.Fallback == "" {
			out.Fallback = st.Fallback
		}
		out.SeededFacts = st.SeededFacts
	}
	next := &DeltaState{Prog: p, Pre: pre, Abs: abs}
	return abs, next, out, nil
}

// buildPipeline runs pre-analysis → FPG → heap modeler. When basePre
// and d are non-nil the pre-analysis is attempted incrementally (it
// falls back internally when ineligible).
func buildPipeline(ctx context.Context, p *Program, opts AbstractionOptions, basePre *pta.Result, d *delta.Diff) (*Abstraction, *pta.Result, *pta.IncrementalStats, error) {
	// One meter for the whole pipeline: a greedy pre-analysis leaves less
	// budget for FPG construction and modeling, bounding the job's total
	// resource use rather than each stage's.
	meter := budget.NewMeter(opts.Resources)

	preOpts := pta.Options{
		Budget: pta.Budget{Work: opts.PreBudget},
		Meter:  meter,
		Trace:  opts.Trace,
	}
	t0 := time.Now()
	var (
		pre *pta.Result
		st  *pta.IncrementalStats
		err error
	)
	if basePre != nil && d != nil {
		pre, st, err = pta.SolveIncrementalContext(ctx, p, preOpts, basePre, d)
	} else {
		pre, err = pta.SolveContext(ctx, p, preOpts)
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("mahjong: pre-analysis: %w", err)
	}
	if pre.Aborted {
		return nil, nil, nil, fmt.Errorf("mahjong: pre-analysis: %w", ErrBudget)
	}
	preTime := time.Since(t0)

	t1 := time.Now()
	g, err := fpg.BuildContext(ctx, pre, fpg.Options{
		OmitNullNode: opts.OmitNullNode,
		Meter:        meter,
		Trace:        opts.Trace,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("mahjong: fpg: %w", err)
	}
	fpgTime := time.Since(t1)

	policy := core.RepFirst
	if opts.TypeDiverseReps {
		policy = core.RepTypeDiverse
	}
	res, err := core.BuildContext(ctx, g, core.Options{
		Policy: policy,
		Meter:  meter,
		Trace:  opts.Trace,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("mahjong: heap modeling: %w", err)
	}
	merged := 0
	for _, c := range res.Classes {
		if c.Size() >= 2 {
			merged++
		}
	}
	abs := &Abstraction{
		MOM:           res.MOM,
		Objects:       res.NumObjects,
		MergedObjects: res.NumMerged,
		Classes:       merged,
		PreTime:       preTime,
		FPGTime:       fpgTime,
		ModelTime:     res.Duration,
		res:           res,
	}
	return abs, pre, st, nil
}
