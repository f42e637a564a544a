package mahjong

// Incremental analysis facade: BuildAbstractionDelta reruns the Figure 5
// pipeline after an edit, reusing a retained DeltaState wherever the
// edit left the inputs unchanged — the pre-analysis is warm-seeded from
// the base solver (internal/pta.SolveIncrementalContext) and the heap
// modeler replays the base partition for type groups whose FPG
// fragments are untouched (internal/core merge reuse). Every reuse
// layer degrades independently: an ineligible or fault-injected delta
// falls back to the cold path with a recorded reason, never an error
// the cold path would not also have produced.

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

// DeltaState retains, from one abstraction build, everything a later
// incremental build replays: the analyzed program, its pre-analysis
// result, and the built abstraction (whose merge decisions are captured
// for reuse). Treat it as opaque and immutable; it is safe to share
// between concurrent BuildAbstractionDelta calls.
type DeltaState struct {
	// Prog is the program the state was built from — the diff base of
	// the next incremental build.
	Prog *Program
	// Pre is the retained pre-analysis solver state.
	Pre *pta.Result
	// Abs is the abstraction built from Pre.
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
	// ReusedGroups and RemergedGroups split the heap modeler's type
	// groups between replayed-from-base and merged-from-scratch.
	ReusedGroups, RemergedGroups int
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
	var reuse *core.ReuseState
	if base == nil || base.Prog == nil || base.Pre == nil || base.Abs == nil {
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
		// Merge reuse is keyed by structural fingerprints that are valid
		// regardless of diff eligibility, so it rides along even when the
		// pre-analysis falls back.
		reuse = base.Abs.reuseState()
	}

	var basePre *pta.Result
	if d != nil {
		basePre = base.Pre
	}
	abs, pre, st, err := buildPipeline(ctx, p, opts, basePre, d, reuse, true)
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
	out.ReusedGroups = abs.res.ReusedGroups
	out.RemergedGroups = abs.res.RemergedGroups
	next := &DeltaState{Prog: p, Pre: pre, Abs: abs}
	return abs, next, out, nil
}

// reuseState unwraps the captured merge decisions, surviving
// abstractions loaded from disk (which have none).
func (a *Abstraction) reuseState() *core.ReuseState {
	if a == nil || a.res == nil {
		return nil
	}
	return a.res.ReuseState
}

// buildPipeline runs pre-analysis → FPG → heap modeler. When basePre
// and d are non-nil the pre-analysis is attempted incrementally (it
// falls back internally when ineligible); reuse and capture configure
// the heap modeler's merge reuse.
func buildPipeline(ctx context.Context, p *Program, opts AbstractionOptions, basePre *pta.Result, d *delta.Diff, reuse *core.ReuseState, capture bool) (*Abstraction, *pta.Result, *pta.IncrementalStats, error) {
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
		Policy:       policy,
		Meter:        meter,
		Trace:        opts.Trace,
		Reuse:        reuse,
		CaptureReuse: capture,
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
