package pta

// Stats are the solver's internal performance counters, exposed through
// Result.Stats for observability (cmd/mahjong -stats, mahjongd
// /metrics) and for the optimization regression tests. All counters are
// deterministic for a given program and Options.
type Stats struct {
	// Nodes is the number of pointer nodes created (including nodes
	// later folded into a cycle representative).
	Nodes int `json:"nodes"`
	// Edges is the number of distinct flow edges inserted.
	Edges int `json:"edges"`
	// CopyEdges is the filter-free subset of Edges — the subgraph the
	// cycle collapser condenses.
	CopyEdges int `json:"copy_edges"`
	// CollapsedSCCs counts copy cycles collapsed onto a representative;
	// CollapsedNodes counts the member nodes folded away.
	CollapsedSCCs  int `json:"collapsed_sccs"`
	CollapsedNodes int `json:"collapsed_nodes"`
	// SCCPasses counts condensation passes over the copy subgraph.
	SCCPasses int `json:"scc_passes"`
	// PropagatedBits is the total number of points-to facts pushed out
	// of the worklist (the solver's real throughput measure; equals
	// Result.Work for unaborted runs).
	PropagatedBits int64 `json:"propagated_bits"`
	// FilterMasks is the number of distinct cast/catch filter classes
	// for which a class-indexed object mask was built; FilterMaskHits
	// counts filtered propagations served by a mask's word-level
	// intersection instead of per-object subtype tests.
	FilterMasks    int   `json:"filter_masks"`
	FilterMaskHits int64 `json:"filter_mask_hits"`
	// WorklistPeak is the high-water mark of the worklist ring.
	WorklistPeak int `json:"worklist_peak"`
}

// Stats returns the solver's performance counters for this run.
func (r *Result) Stats() Stats {
	st := r.solver.stats
	st.Nodes = len(r.solver.nodes)
	st.WorklistPeak = r.solver.worklist.peak
	return st
}
