package main

// edit-loop: one base build in set-up, then a seeded chain of
// one-method edits, each BuildAbstractionDelta(prev) + Analyze M-2obj.
//
// BENCHMARK.json does not list this workload: on some seeds its warm =
// cold check fails, because the warm path keeps the allocation sites of
// a method that a dropped call made unreachable (warm Objects and
// MergedObjects one or two above the cold build's; merged pairs and
// client metrics equal). It stays runnable by name, with that check
// strict, to reproduce the defect and to measure the warm path, e.g.
// seed 2103062997 fails on edit 35 ("drop statement in
// app.m2.Util.run/0", stale site app.m2.Util.listGroup1/0/new
// java.util.ArrayList#1351).

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mahjong"
	"mahjong/internal/delta"
	"mahjong/internal/lang"
)

const (
	editAnalysis = "2obj"
	// sessionEdits is the length of one edit chain. Each session starts
	// again from the set-up base state: a DeltaState keeps its whole
	// chain of predecessors reachable, so live heap grows with every
	// edit of a chain, and a fixed session length keeps the measured
	// work and memory the same from run to run.
	sessionEdits = 5
)

// editChain replays the seeded edit sequence of one session from a base
// program: the same seed, session and base always yield the same
// programs, and session 0 draws its edits from the workload seed itself.
type editChain struct {
	rng  *rand.Rand
	prog *lang.Program
}

func newEditChain(base *lang.Program, seed int64, session int) *editChain {
	return &editChain{rng: rand.New(rand.NewSource(seed + int64(session)<<32)), prog: base}
}

func (c *editChain) next() (*lang.Program, string, error) {
	p, desc, err := delta.RandomEdit(c.prog, c.rng)
	if err != nil {
		return nil, "", fmt.Errorf("edit: %w", err)
	}
	c.prog = p
	return p, desc, nil
}

func analyzeFacade(ctx context.Context, prog *lang.Program, abs *mahjong.Abstraction, analysis string) (*mahjong.Report, error) {
	rep, err := mahjong.AnalyzeContext(ctx, prog, mahjong.Config{Analysis: analysis, Heap: mahjong.HeapMahjong, Abstraction: abs})
	if err != nil {
		return nil, err
	}
	return rep, reportError(rep)
}

func runEditLoop(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := &runResult{}
	res.speed.sample()
	var base subject
	var baseState *mahjong.DeltaState
	setup, err := timeSetup(cfg.setupReps, func() error {
		var err error
		if base, err = genSubject("checkstyle", cfg.seed); err != nil {
			return err
		}
		_, baseState, _, err = mahjong.BuildAbstractionDelta(ctx, base.prog, mahjong.AbstractionOptions{}, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Untimed: the base program's analysis carries the checkstyle pin.
	baseRep, err := analyzeFacade(ctx, base.prog, baseState.Abs, editAnalysis)
	if err != nil {
		return nil, fmt.Errorf("base analysis: %w", err)
	}
	if pinned, err := checkPin(cfg.seed, "checkstyle", editAnalysis, baseRep.Metrics); err != nil {
		res.problem("%v", err)
	} else if pinned {
		res.note("pin checkstyle M-%s: ok", editAnalysis)
	}

	var layered, layeredBase *layerState
	if cfg.traced {
		if layeredBase, _, err = build(ctx, newRecorder(time.Now()), base.prog, nil, true); err != nil {
			return nil, fmt.Errorf("layered base build: %w", err)
		}
	}

	var chain *editChain
	var prev *mahjong.DeltaState
	var warm []outcome // the facade's outcome per edit, for warm = cold
	var lat, plainMS, tracedMS []float64
	var measured time.Duration
	var alloc uint64
	var ops []tracedOp
	warmUsed := 0
	rec := newRecorder(time.Now())
	start := time.Now()
	for i := 0; ; i++ {
		if i%sessionEdits == 0 && i > 0 {
			res.speed.sample()
			if time.Since(start).Seconds() >= cfg.seconds {
				break
			}
		}
		if i%sessionEdits == 0 {
			chain, prev = newEditChain(base.prog, cfg.seed, i/sessionEdits), baseState
			if cfg.traced {
				layered = layeredBase
			}
		}
		prog, desc, err := chain.next()
		if err != nil {
			return nil, err
		}
		res.attempted++
		runtime.GC() // each edit starts on a collected heap
		a0, t := heapAllocs(), time.Now()
		abs, next, inc, err := mahjong.BuildAbstractionDelta(ctx, prog, mahjong.AbstractionOptions{}, prev)
		var rep *mahjong.Report
		if err == nil {
			rep, err = analyzeFacade(ctx, prog, abs, editAnalysis)
		}
		d := time.Since(t)
		alloc += heapAllocs() - a0
		if err != nil {
			// The chain cannot continue past a failed build; stop here so
			// every later edit is not counted as a cascade of failures.
			res.failed++
			res.problem("edit %d (%s): %v", i+1, desc, err)
			break
		}
		prev = next
		if inc.Used {
			warmUsed++
		}
		fo := facadeOutcome(abs, rep)
		warm = append(warm, fo)
		if !cfg.traced {
			lat = append(lat, ms(d))
			measured += d
			continue
		}
		runtime.GC()
		rec.begin(i)
		op := tracedOp{id: i}
		st, bc, err := build(ctx, rec, prog, layered, true)
		var lo outcome
		if err == nil {
			op.build = &bc
			var ac analyzeCounts
			lo, ac, err = analyze(ctx, rec, prog, st.res.MOM, editAnalysis)
			op.main = &ac
		}
		wall := rec.end()
		if err != nil {
			res.failed++
			res.problem("edit %d (layered): %v", i+1, err)
			break
		}
		layered = st
		if lo = withAbstraction(lo, st.res); lo != fo {
			res.failed++
			res.problem("edit %d: layered result differs from the facade's:\n  layered %v\n  facade  %v", i+1, lo, fo)
		}
		plainMS, tracedMS = append(plainMS, ms(d)), append(tracedMS, ms(wall))
		ops = append(ops, op)
	}
	res.speed.sample()
	res.note("edits %d in sessions of %d, warm-started %d", len(warm), sessionEdits, warmUsed)
	if cfg.traced {
		res.spans = rec.spans
		res.perLayer(ops, rec.spans, plainMS, tracedMS)
	} else if err := res.endToEnd(setup, lat, measured.Seconds(), alloc); err != nil {
		return nil, err
	}

	// Untimed: replay the chain and require every warm edit to equal a
	// cold build + analysis of the same program (the documented
	// bit-for-bit contract), then run the oracle on the last edit.
	t := time.Now()
	var replay *editChain
	var lastKept kept
	for i, want := range warm {
		if i%sessionEdits == 0 {
			replay = newEditChain(base.prog, cfg.seed, i/sessionEdits)
		}
		prog, _, err := replay.next()
		if err != nil {
			return nil, err
		}
		abs, err := mahjong.BuildAbstractionContext(ctx, prog, mahjong.AbstractionOptions{})
		var rep *mahjong.Report
		if err == nil {
			rep, err = analyzeFacade(ctx, prog, abs, editAnalysis)
		}
		if err != nil {
			res.failed++
			res.problem("edit %d cold rebuild: %v", i+1, err)
			continue
		}
		if got := facadeOutcome(abs, rep); got != want {
			res.failed++
			res.problem("edit %d: warm result differs from a cold rebuild:\n  warm %v\n  cold %v", i+1, want, got)
		}
		lastKept = kept{prog: prog, mom: abs.MOM}
	}
	res.note("warm = cold checked on %d edits (%.2fs)", len(warm), time.Since(t).Seconds())
	if lastKept.prog != nil {
		if err := runOracle(ctx, res, "checkstyle (last edit)", lastKept, cfg); err != nil {
			return nil, err
		}
	}
	return res, nil
}
