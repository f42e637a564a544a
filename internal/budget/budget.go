// Package budget bounds the pipeline's resource use beyond wall-clock
// deadlines. A Limits value caps the quantities that actually drive
// memory and CPU blow-ups — propagated points-to facts, live bitset
// words, automata merge pairs — and a Meter tracks consumption against
// those caps across every stage of one job (the pre-analysis, the FPG
// builder, and the heap modeler share a single Meter, so a job cannot
// dodge its budget by splitting work across stages).
//
// Checks are deliberately cheap: each charge is one atomic add plus one
// comparison, and the solver batches charges along its existing
// amortized work accounting. Exhaustion surfaces as an error wrapping
// ErrExhausted — a typed, recoverable condition — instead of the OOM
// kill the process would otherwise risk.
package budget

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrExhausted is wrapped by every budget-exhaustion error; test with
// errors.Is. The facade re-exports it as mahjong.ErrBudgetExhausted.
var ErrExhausted = errors.New("resource budget exhausted")

// Limits caps one job's resource use. A zero field is unlimited; the
// zero value disables budgeting entirely.
type Limits struct {
	// Facts caps points-to facts propagated by the solver (and scanned
	// by the FPG builder). It bounds total propagation work.
	Facts int64
	// BitsetWords caps live 64-bit words held by the solver's points-to
	// sets. It bounds the dominant term of solver memory.
	BitsetWords int64
	// MergePairs caps automata equivalence checks in the heap modeler.
	// It bounds the quadratic worst case of per-type merging.
	MergePairs int64
}

// Zero reports whether no limit is set.
func (l Limits) Zero() bool { return l == Limits{} }

// Meter counts consumption against Limits. It is safe for concurrent
// use (the heap modeler's merge workers charge it in parallel). A nil
// *Meter is valid and never exhausts, so unbudgeted runs pay only a nil
// check at each seam.
type Meter struct {
	limits Limits
	facts  atomic.Int64
	words  atomic.Int64
	pairs  atomic.Int64
}

// NewMeter returns a meter enforcing l, or nil when l is zero — the
// nil meter is the "no budget" fast path.
func NewMeter(l Limits) *Meter {
	if l.Zero() {
		return nil
	}
	return &Meter{limits: l}
}

// Limits returns the caps the meter enforces (zero value for nil).
func (m *Meter) Limits() Limits {
	if m == nil {
		return Limits{}
	}
	return m.limits
}

func exhausted(resource string, limit int64) error {
	return fmt.Errorf("%w: %s limit %d exceeded", ErrExhausted, resource, limit)
}

// AddFacts charges n propagated facts; it returns an error wrapping
// ErrExhausted once the total crosses the Facts limit.
func (m *Meter) AddFacts(n int64) error {
	if m == nil || m.limits.Facts <= 0 {
		return nil
	}
	if m.facts.Add(n) > m.limits.Facts {
		return exhausted("propagated-facts", m.limits.Facts)
	}
	return nil
}

// AddWords adjusts the live bitset-word gauge by n (negative to credit
// freed storage).
func (m *Meter) AddWords(n int64) error {
	if m == nil || m.limits.BitsetWords <= 0 {
		return nil
	}
	if m.words.Add(n) > m.limits.BitsetWords {
		return exhausted("bitset-words", m.limits.BitsetWords)
	}
	return nil
}

// AddPairs charges n automata equivalence checks.
func (m *Meter) AddPairs(n int64) error {
	if m == nil || m.limits.MergePairs <= 0 {
		return nil
	}
	if m.pairs.Add(n) > m.limits.MergePairs {
		return exhausted("merge-pairs", m.limits.MergePairs)
	}
	return nil
}

// Usage returns the current consumption (all zero for nil).
func (m *Meter) Usage() (facts, words, pairs int64) {
	if m == nil {
		return 0, 0, 0
	}
	return m.facts.Load(), m.words.Load(), m.pairs.Load()
}
