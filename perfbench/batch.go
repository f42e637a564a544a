package main

// merge-heavy: the CLI user's cold pipeline, parse → BuildAbstraction →
// Analyze M-3obj, over the mid-tier subjects.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mahjong"
	"mahjong/internal/lang"
	"mahjong/internal/pta"
)

func runMergeHeavy(ctx context.Context, cfg runConfig) (*runResult, error) {
	return runBatch(ctx, cfg, []string{"checkstyle", "pmd", "xalan", "chart", "bloat"}, "3obj")
}

// kept is the last analyzed copy of a subject, for the oracle.
type kept struct {
	prog *lang.Program
	mom  map[*lang.AllocSite]*lang.AllocSite
	pre  *pta.Result // the replica's pre-analysis, in traced runs
}

// facadeBatchOp is one untraced operation through the public facade.
func facadeBatchOp(ctx context.Context, s subject, analysis string) (*lang.Program, *mahjong.Abstraction, *mahjong.Report, error) {
	prog, err := mahjong.ParseProgram(s.name, s.ir)
	if err != nil {
		return nil, nil, nil, err
	}
	abs, err := mahjong.BuildAbstractionContext(ctx, prog, mahjong.AbstractionOptions{})
	if err != nil {
		return nil, nil, nil, err
	}
	rep, err := mahjong.AnalyzeContext(ctx, prog, mahjong.Config{Analysis: analysis, Heap: mahjong.HeapMahjong, Abstraction: abs})
	if err != nil {
		return nil, nil, nil, err
	}
	return prog, abs, rep, reportError(rep)
}

// layeredBatchOp is the same operation through the traced replica.
func layeredBatchOp(ctx context.Context, rec *recorder, s subject, analysis string) (outcome, tracedOp, *layerState, error) {
	var op tracedOp
	prog, err := parse(rec, s.name, s.ir)
	if err != nil {
		return outcome{}, op, nil, err
	}
	op.parsedBytes = len(s.ir)
	st, bc, err := build(ctx, rec, prog, nil, false)
	if err != nil {
		return outcome{}, op, nil, err
	}
	op.build = &bc
	o, ac, err := analyze(ctx, rec, prog, st.res.MOM, analysis)
	if err != nil {
		return outcome{}, op, nil, err
	}
	op.main = &ac
	return o, op, st, nil
}

func runBatch(ctx context.Context, cfg runConfig, names []string, analysis string) (*runResult, error) {
	res := &runResult{}
	res.speed.sample()
	var subs []subject
	setup, err := timeSetup(cfg.setupReps, func() error {
		subs = subs[:0]
		for _, n := range names {
			s, err := genSubject(n, cfg.seed)
			if err != nil {
				return err
			}
			subs = append(subs, s)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	ref := map[string]outcome{}
	last := map[string]kept{}
	// accept checks one operation's outcome against the subject's first
	// one and, for the first, against the EXPERIMENTS.md pins; a failed
	// check fails the operation.
	accept := func(name string, o outcome) {
		r, ok := ref[name]
		if !ok {
			ref[name] = o
			if pinned, err := checkPin(cfg.seed, name, analysis, o.Metrics); err != nil {
				res.failed++
				res.problem("%v", err)
			} else if pinned {
				res.note("pin %s M-%s: ok", name, analysis)
			}
			return
		}
		if o != r {
			res.failed++
			res.problem("%s: result differs from the subject's first operation:\n  got  %v\n  want %v", name, o, r)
		}
	}

	var lat, plainMS, tracedMS []float64
	bySubject := map[string][]float64{}
	var measured time.Duration
	var alloc uint64
	var ops []tracedOp
	rec := newRecorder(time.Now())
	start := time.Now()
	for opID := 0; ; {
		for _, i := range rng.Perm(len(subs)) {
			s := subs[i]
			res.attempted++
			// Every operation starts on a collected heap, as each run of
			// the CLI starts in a fresh process.
			runtime.GC()
			a0, t := heapAllocs(), time.Now()
			prog, abs, rep, err := facadeBatchOp(ctx, s, analysis)
			d := time.Since(t)
			alloc += heapAllocs() - a0
			if err != nil {
				res.failed++
				res.problem("%s: %v", s.name, err)
				continue
			}
			fo := facadeOutcome(abs, rep)
			if !cfg.traced {
				lat = append(lat, ms(d))
				bySubject[s.name] = append(bySubject[s.name], ms(d))
				measured += d
				accept(s.name, fo)
				last[s.name] = kept{prog: prog, mom: abs.MOM}
				continue
			}
			runtime.GC()
			rec.begin(opID)
			lo, op, st, err := layeredBatchOp(ctx, rec, s, analysis)
			wall := rec.end()
			op.id = opID
			opID++
			if err != nil {
				res.failed++
				res.problem("%s (layered): %v", s.name, err)
				continue
			}
			lo = withAbstraction(lo, st.res)
			if lo != fo {
				res.failed++
				res.problem("%s: layered result differs from the facade's:\n  layered %v\n  facade  %v", s.name, lo, fo)
			}
			accept(s.name, fo)
			plainMS, tracedMS = append(plainMS, ms(d)), append(tracedMS, ms(wall))
			ops = append(ops, op)
			last[s.name] = kept{prog: st.prog, mom: st.res.MOM, pre: st.pre}
		}
		res.speed.sample()
		if time.Since(start).Seconds() >= cfg.seconds {
			break
		}
	}
	res.speed.sample()
	for _, s := range subs {
		if xs := bySubject[s.name]; len(xs) > 0 {
			res.note("%s: p50 %.1f ms over %d operations", s.name, median(xs), len(xs))
		}
	}
	if cfg.traced {
		res.spans = rec.spans
		res.perLayer(ops, rec.spans, plainMS, tracedMS)
	} else if err := res.endToEnd(setup, lat, measured.Seconds(), alloc); err != nil {
		return nil, err
	}

	// Untimed: the Definition 2.1 oracle over each subject's last MOM.
	for _, s := range subs {
		k, ok := last[s.name]
		if !ok {
			continue
		}
		if err := runOracle(ctx, res, s.name, k, cfg); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runOracle checks one MOM with the Definition 2.1 oracle, solving the
// pre-analysis first when the run did not keep one.
func runOracle(ctx context.Context, res *runResult, name string, k kept, cfg runConfig) error {
	t := time.Now()
	pre := k.pre
	if pre == nil {
		var err error
		if pre, err = pta.SolveContext(ctx, k.prog, pta.Options{}); err != nil {
			return fmt.Errorf("oracle pre-analysis of %s: %w", name, err)
		}
	}
	rep := checkMOM(pre, k.mom, cfg.seed, cfg.samples)
	for _, v := range rep.Violations {
		res.problem("oracle %s: %s", name, v)
	}
	res.note("oracle %s: %d merged pairs consistent, %d sampled unmerged pairs inconsistent, %d violations (%.2fs)",
		name, rep.MergedPairs, rep.SampledPairs, len(rep.Violations), time.Since(t).Seconds())
	return nil
}
