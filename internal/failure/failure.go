// Package failure defines the typed error that pipeline stages produce
// when they recover a panic at a stage boundary.
//
// Every entry point of the Mahjong pipeline — the points-to solver
// (pta.SolveContext), the FPG builder (fpg.BuildContext), the heap
// modeler (core.BuildContext, including its equivalence checks),
// client evaluation, and the mahjongd job workers — converts an escaping
// panic into an *InternalError carrying the stage name and the captured
// stack, instead of letting it unwind the process. One poisoned program
// then fails one job; the daemon, its worker pool, and its caches stay
// healthy, and per-stage failure counters surface in /metrics.
//
// The public facade aliases the type as mahjong.InternalError, so
// callers outside internal/ can match it with errors.As.
package failure

import (
	"fmt"
	"runtime/debug"
)

// InternalError is a panic recovered at a pipeline-stage boundary.
type InternalError struct {
	// Stage names the seam that recovered the panic ("pta.solve",
	// "core.build", "automata.equiv", "clients.evaluate", "server.job",
	// …); the faultinject package declares the canonical names.
	Stage string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("internal error in %s: %v", e.Stage, e.Value)
}

// Unwrap exposes a panic value that already was an error, so that
// errors.Is/As reach through (a hook that panics with a sentinel error
// stays matchable).
func (e *InternalError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// AsInternal converts a value recovered by recover() into an
// *InternalError. A value that already is one keeps its original stage
// and stack (an inner seam recovered first); anything else is wrapped
// with the given stage and the current stack.
func AsInternal(stage string, r any) *InternalError {
	if ie, ok := r.(*InternalError); ok {
		return ie
	}
	return &InternalError{Stage: stage, Value: r, Stack: debug.Stack()}
}

// Recover is the deferred stage guard:
//
//	func Stage(...) (res T, err error) {
//		defer failure.Recover("stage.name", &err)
//		...
//	}
//
// It converts an in-flight panic into an *InternalError assigned to
// *errp. When no panic is in flight it does nothing, preserving the
// function's normal return values.
func Recover(stage string, errp *error) {
	if r := recover(); r != nil {
		*errp = AsInternal(stage, r)
	}
}
