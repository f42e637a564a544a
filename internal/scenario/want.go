// Package scenario is a constraint-driven search engine for analysis
// workloads: it grows lang.Programs that *provably* exhibit the heap
// shapes that stress the Mahjong automata-equivalence merge, instead of
// hoping a random generator stumbles into them.
//
// The pieces, in pipeline order:
//
//   - Want (this file): the property DSL — lower bounds on heap-shape
//     properties a searched program must exhibit.
//   - search.go: interval domains over a program-shape spec, narrowed
//     against the Want by constraint propagation (generate-and-prune in
//     the possible-lines style) before any program is materialized,
//     then a deterministic sample/materialize/estimate/accept loop.
//   - spec.go: the materializer turning an admissible Spec point into a
//     valid lang.Program built from property-carrying motifs.
//   - estimate.go: the cheap static estimator that scores candidates;
//     its near-miss metric is a partition refinement that mirrors the
//     paper's NFA/DFA equivalence check, so "divergence depth" here
//     predicts where the real merge will have to split families.
//   - shrink.go: a ddmin shrinker over the printed textual IR.
//   - diff.go: the differential harness (two A/B axes, shrink on
//     mismatch) that turns searched programs into oracles.
//   - corpus.go: the committed adversarial corpus and its manifest.
package scenario

// Want states lower bounds on the shape properties a searched program
// must exhibit, as measured by the estimator. The zero value of a field
// means "don't care". All properties are chosen to target the automata
// merge: deep field automata, polymorphic containers, families of
// same-type allocation sites whose automata diverge only deep down
// (near misses, the expensive case for the equivalence check),
// covariant factory chains, and megamorphic dispatch.
type Want struct {
	// FieldDepth asks for a field path of at least this many edges in
	// the alloc-site graph (the heap automaton must be at least this
	// deep). The fixed 12-subject suite stays at 2-3.
	FieldDepth int
	// PolyContainers asks for at least this many container sites
	// holding PolyContainerTypes or more distinct element types through
	// one field.
	PolyContainers int
	// PolyContainerTypes is the element-type diversity per container
	// (default 3).
	PolyContainerTypes int
	// NearMissFamilies asks for families of same-type allocation sites
	// whose automata stay equivalent to depth NearMissDepth-1 and
	// diverge at NearMissDepth or deeper. The suite has none beyond
	// depth 1.
	NearMissFamilies int
	// NearMissFamilySize is the number of sites per family (default 2).
	NearMissFamilySize int
	// NearMissDepth is the minimum divergence depth (default 2).
	NearMissDepth int
	// FactoryChainLen asks for a chain of at least this many covariant
	// factory methods (each returns a fresh proper subtype of its
	// declared return type and calls the next).
	FactoryChainLen int
	// CallGraphFanout asks for one virtual call site with at least this
	// many CHA dispatch targets.
	CallGraphFanout int
}

// Defaults used when the corresponding Want threshold field is zero.
const (
	DefaultPolyContainerTypes = 3
	DefaultNearMissFamilySize = 2
	DefaultNearMissDepth      = 2
)

func (w Want) polyTypes() int {
	if w.PolyContainerTypes > 0 {
		return w.PolyContainerTypes
	}
	return DefaultPolyContainerTypes
}

func (w Want) famSize() int {
	if w.NearMissFamilySize > 0 {
		return w.NearMissFamilySize
	}
	return DefaultNearMissFamilySize
}

func (w Want) missDepth() int {
	if w.NearMissDepth > 0 {
		return w.NearMissDepth
	}
	return DefaultNearMissDepth
}

// Met reports whether the estimate satisfies every stated bound.
func (w Want) Met(e Estimate) bool {
	return e.FieldDepth >= w.FieldDepth &&
		e.PolyContainers >= w.PolyContainers &&
		e.NearMissFamilies >= w.NearMissFamilies &&
		e.FactoryChainLen >= w.FactoryChainLen &&
		e.CallGraphFanout >= w.CallGraphFanout
}

// Thresholds returns the estimator thresholds implied by the Want.
func (w Want) Thresholds() Thresholds {
	return Thresholds{
		PolyContainerTypes: w.polyTypes(),
		NearMissDepth:      w.missDepth(),
	}
}
