package pta

// Stats are the solver's internal performance counters, exposed through
// Result.Stats for observability (cmd/mahjong -stats, mahjongd
// /metrics) and for the optimization regression tests. All counters are
// deterministic for a given program and Options.
type Stats struct {
	// Nodes is the number of pointer nodes created.
	Nodes int `json:"nodes"`
	// Edges is the number of distinct flow edges inserted.
	Edges int `json:"edges"`
	// CopyEdges is the filter-free subset of Edges.
	CopyEdges int `json:"copy_edges"`
	// CollapsedNodes is always 0: the solver folds no nodes. It remains
	// only because the benchmark report still reads it.
	CollapsedNodes int `json:"collapsed_nodes"`
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
