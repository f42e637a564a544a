// Package faultinject provides deterministic fault-injection hook
// points at every seam of the Mahjong pipeline. It is build-tag-free
// and nil-by-default: in production no hook is installed and each seam
// costs a single atomic pointer load, so the hooks stay compiled into
// the binary the tests actually exercise.
//
// Tests install a Hook (and/or a Mutator for byte-level corruption)
// with Set/SetMutator, drive the system, and Clear. A hook observes the
// stage name of the seam that fired and decides the fault: return an
// error to inject a failure, panic to simulate a bug, sleep to simulate
// a slow stage, or return nil to let the stage proceed. Combinators
// (OnStage, Once, Times) scope a fault to one seam and a bounded number
// of firings, which is how a test injects a fault into the primary run
// while letting the degraded re-run succeed.
//
// The mahjongd fault-injection matrix (internal/server, `make
// faultmatrix`) drives the daemon through every stage fault under the
// race detector.
package faultinject

import (
	"sync/atomic"

	"mahjong/internal/failure"
)

// Canonical stage names, matching the failure.InternalError stages the
// seams report. Hooks and metrics share this vocabulary.
const (
	// StageSolve fires at the entry of every points-to solve
	// (pre-analysis and main analysis alike).
	StageSolve = "pta.solve"
	// StageFPG fires at the entry of field points-to graph construction.
	StageFPG = "fpg.build"
	// StageModel fires at the entry of the heap modeler.
	StageModel = "core.build"
	// StageEquiv fires before each automata equivalence check, inside
	// the heap modeler's merge loop.
	StageEquiv = "automata.equiv"
	// StageClients fires before client-metric evaluation.
	StageClients = "clients.evaluate"
	// StageCacheLoad guards rebinding of cached abstraction bytes; the
	// Mutator (not the Hook) fires here to corrupt the bytes.
	StageCacheLoad = "server.cache.load"
	// StageJob fires when a mahjongd worker picks up a job, before any
	// pipeline stage runs.
	StageJob = "server.job"
	// StageDelta fires at the entry of incremental IR diffing (unit
	// hashing, shape comparison, base→next translation maps). A fault
	// here must fall back to a from-scratch solve, never fail the job.
	StageDelta = "delta.diff"
	// StageSeed fires before the incremental solver's taint closure and
	// warm seeding. A fault discards the partially seeded solver and
	// falls back to a cold solve.
	StageSeed = "pta.seed"
	// StageQuery fires when mahjongd answers a demand-driven
	// /jobs/{id}/query request, before any (bounded) demand solve runs.
	StageQuery = "server.query"
	// StageAdmit fires during admission control on POST /jobs, after
	// validation but before the job is enqueued. A fault here rejects
	// the submission (retriable 503) without creating queue state; it
	// must never wedge the intake path.
	StageAdmit = "server.admit"
	// StageQueue fires when a worker dequeues a job, before the job
	// pipeline (StageJob) runs — the seam for faults in the scheduler
	// hand-off itself. A fault fails that one job; the worker and the
	// queue survive.
	StageQueue = "server.queue"
)

// Hook decides what happens at a seam: return nil to proceed, an error
// to inject a failure, or panic/sleep for crash and latency faults.
type Hook func(stage string) error

// Mutator transforms bytes flowing through a seam (cache corruption).
type Mutator func(stage string, data []byte) []byte

var (
	activeHook    atomic.Pointer[Hook]
	activeMutator atomic.Pointer[Mutator]
)

// Set installs h as the process-wide hook (nil uninstalls).
func Set(h Hook) {
	if h == nil {
		activeHook.Store(nil)
		return
	}
	activeHook.Store(&h)
}

// Clear uninstalls the hook and the mutator.
func Clear() {
	activeHook.Store(nil)
	activeMutator.Store(nil)
}

// SetMutator installs m as the process-wide mutator (nil uninstalls).
func SetMutator(m Mutator) {
	if m == nil {
		activeMutator.Store(nil)
		return
	}
	activeMutator.Store(&m)
}

// Fire runs the installed hook at a seam; without one it returns nil at
// the cost of one atomic load. A hook that panics (PanicWith) unwinds
// out of Fire before the seam's own wrapping code runs, so Fire tags
// the panic value with the seam's stage itself: the *failure.
// InternalError it re-raises keeps the injection point visible even
// when an outer stage guard is the one that recovers it.
func Fire(stage string) error {
	p := activeHook.Load()
	if p == nil {
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			panic(failure.AsInternal(stage, r))
		}
	}()
	return (*p)(stage)
}

// Mutate passes data through the installed mutator; without one it
// returns data unchanged.
func Mutate(stage string, data []byte) []byte {
	p := activeMutator.Load()
	if p == nil {
		return data
	}
	return (*p)(stage, data)
}

// OnStage scopes h to a single stage; other seams proceed normally.
func OnStage(stage string, h Hook) Hook {
	return func(s string) error {
		if s != stage {
			return nil
		}
		return h(s)
	}
}

// Times fires h for the first n matching calls only, then lets the seam
// proceed — the shape of a transient fault, and what lets a degraded
// re-run through the same seam succeed.
func Times(n int64, h Hook) Hook {
	var count atomic.Int64
	return func(s string) error {
		if count.Add(1) > n {
			return nil
		}
		return h(s)
	}
}

// Once is Times(1, h).
func Once(h Hook) Hook { return Times(1, h) }

// PanicWith returns a hook that panics with v (a simulated bug).
func PanicWith(v any) Hook {
	return func(string) error { panic(v) }
}

// Fail returns a hook that injects err.
func Fail(err error) Hook {
	return func(string) error { return err }
}
