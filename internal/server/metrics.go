package server

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mahjong"
	"mahjong/internal/faultinject"
	"mahjong/internal/sched"
	"mahjong/internal/trace"
)

// knownStages pre-declares every pipeline stage as a
// mahjongd_stage_failures_total label, so /metrics exposes a stable,
// zero-valued series per stage from the first scrape instead of
// materializing labels only after a stage's first failure (which breaks
// dashboards and rate() queries that assume the series exists).
//
// mahjongvet's stagehook analyzer cross-checks this registry against the
// faultinject Stage* constants and the Fire/Mutate seams: adding a stage
// without listing it here fails `make lint`.
var knownStages = []string{
	faultinject.StageSolve,
	faultinject.StageCollapse,
	faultinject.StageFPG,
	faultinject.StageModel,
	faultinject.StageEquiv,
	faultinject.StageClients,
	faultinject.StageCacheLoad,
	faultinject.StageJob,
	faultinject.StageDelta,
	faultinject.StageSeed,
	faultinject.StageQuery,
	faultinject.StageAdmit,
	faultinject.StageQueue,
}

// metrics holds the daemon's counters. All fields are atomics so that
// workers, handlers, and the cache update them without a shared lock
// (per-stage failures, being rare by construction, use a small mutex).
type metrics struct {
	jobsSubmitted atomic.Int64
	jobsCompleted atomic.Int64
	jobsFailed    atomic.Int64
	jobsCancelled atomic.Int64
	jobsRejected  atomic.Int64 // all rejected submissions (full + wait + closing)
	jobsRunning   atomic.Int64
	jobsDegraded  atomic.Int64 // jobs completed on the alloc-site fallback

	// Overload-control counters (docs/ROBUSTNESS.md). jobsRejected above
	// stays the total; these split it by cause and add the two shedding
	// outcomes that are not rejections.
	rejectedFull     atomic.Int64 // 429s because the queue was at capacity
	rejectedWait     atomic.Int64 // 429s because estimated wait exceeded the deadline
	jobsShed         atomic.Int64 // queued jobs failed by deadline expiry before running
	jobsAutodegraded atomic.Int64 // batch jobs downgraded to alloc-site at admission

	panicsRecovered  atomic.Int64 // panics converted to job failures
	budgetExhausted  atomic.Int64 // jobs hitting a resource budget
	cacheQuarantined atomic.Int64 // corrupt cache entries evicted

	// stageFailures counts failures by pipeline stage ("pta.solve",
	// "core.build", "server.cache.load", …).
	failMu        sync.Mutex
	stageFailures map[string]int64

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64

	// Incremental (delta) jobs: submissions naming a base_job_id, split
	// into warm starts and fallbacks to the from-scratch build.
	deltaJobs      atomic.Int64
	deltaWarm      atomic.Int64
	deltaFallbacks atomic.Int64

	// Demand queries (POST /jobs/{id}/query) by answer source.
	queriesTotal  atomic.Int64
	queriesFull   atomic.Int64 // answered from a completed job's result
	queriesCHA    atomic.Int64 // short-circuited by CHA unreachability
	queriesDemand atomic.Int64 // answered by the bounded demand solve
	queryErrors   atomic.Int64

	solverWork atomic.Int64 // propagation units across all main analyses
	preNS      atomic.Int64 // pre-analysis time, abstraction builds only
	fpgNS      atomic.Int64 // FPG construction time
	mergeNS    atomic.Int64 // heap-modeling (merge) time
	analysisNS atomic.Int64 // main-analysis wall time

	// Solver-internal counters, accumulated from pta.Stats per analysis.
	solverPropagated atomic.Int64 // points-to facts pushed through the worklist
	solverSCCs       atomic.Int64 // copy cycles collapsed
	solverSCCNodes   atomic.Int64 // nodes folded into cycle representatives
	solverMaskHits   atomic.Int64 // filtered propagations served by class masks

	// stageDur holds one fixed-bucket duration histogram per known
	// pipeline stage, fed from job span trees. The map is built once in
	// newMetrics and never mutated afterwards, so lookups are lock-free;
	// the bucket counters themselves are atomics.
	stageDur map[string]*durHist

	// queueWait histograms the time jobs spent waiting for a worker
	// (including jobs that were shed or cancelled while queued — those
	// waits are exactly the signal overload dashboards need).
	queueWait durHist
}

// newMetrics returns a metrics set with a pre-sized histogram per
// registered pipeline stage.
func newMetrics() *metrics {
	m := &metrics{stageDur: make(map[string]*durHist, len(knownStages))}
	for _, stage := range knownStages {
		m.stageDur[stage] = &durHist{}
	}
	return m
}

// observeQueueWait records one job's time-in-queue.
func (m *metrics) observeQueueWait(d time.Duration) {
	m.queueWait.observe(d.Nanoseconds())
}

// histBoundsNS are the stage-duration histogram bucket upper bounds in
// nanoseconds (1ms … 100s); +Inf is implicit. Fixed bounds keep the
// /metrics output deterministic and scrape-friendly.
var histBoundsNS = [...]int64{
	int64(time.Millisecond),
	int64(10 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(time.Second),
	int64(10 * time.Second),
	int64(100 * time.Second),
}

// durHist is a fixed-bucket duration histogram (atomic, lock-free).
// buckets[i] counts observations <= histBoundsNS[i]; inf catches the
// rest. Cumulative counts are computed at snapshot time.
type durHist struct {
	buckets [len(histBoundsNS)]atomic.Int64
	inf     atomic.Int64
	sumNS   atomic.Int64
}

func (h *durHist) observe(ns int64) {
	h.sumNS.Add(ns)
	for i, bound := range histBoundsNS {
		if ns <= bound {
			h.buckets[i].Add(1)
			return
		}
	}
	h.inf.Add(1)
}

// observeTrace feeds every closed span of one attempt's snapshot into
// the per-stage duration histograms. Open spans (DurNS < 0) and stages
// outside the registry are skipped — the latter cannot happen for spans
// produced by the pipeline, which stagehook pins to the registry.
func (m *metrics) observeTrace(t *trace.Trace) {
	if m.stageDur == nil {
		return
	}
	for i := range t.Spans {
		s := &t.Spans[i]
		if s.DurNS < 0 {
			continue
		}
		if h := m.stageDur[s.Stage]; h != nil {
			h.observe(s.DurNS)
		}
	}
}

// StageDuration is the JSON form of one stage's duration histogram.
type StageDuration struct {
	Count int64 `json:"count"`
	SumMS int64 `json:"sum_ms"`
	// Buckets holds cumulative observation counts per bound in
	// histBoundsNS order (the +Inf bucket equals Count).
	Buckets []int64 `json:"buckets"`
}

// snapshot renders one histogram with cumulative bucket counts,
// Prometheus-style.
func (h *durHist) snapshot() StageDuration {
	var sd StageDuration
	var cum int64
	sd.Buckets = make([]int64, 0, len(histBoundsNS))
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		sd.Buckets = append(sd.Buckets, cum)
	}
	sd.Count = cum + h.inf.Load()
	sd.SumMS = h.sumNS.Load() / int64(time.Millisecond)
	return sd
}

// stageDurationSnapshot renders the histograms with cumulative bucket
// counts, Prometheus-style.
func (m *metrics) stageDurationSnapshot() map[string]StageDuration {
	out := make(map[string]StageDuration, len(m.stageDur))
	for _, stage := range knownStages {
		h := m.stageDur[stage]
		if h == nil {
			continue
		}
		out[stage] = h.snapshot()
	}
	return out
}

// noteStageFailure bumps the per-stage failure counter.
func (m *metrics) noteStageFailure(stage string) {
	m.failMu.Lock()
	if m.stageFailures == nil {
		m.stageFailures = make(map[string]int64)
	}
	m.stageFailures[stage]++
	m.failMu.Unlock()
}

func (m *metrics) stageFailureSnapshot() map[string]int64 {
	m.failMu.Lock()
	defer m.failMu.Unlock()
	out := make(map[string]int64, len(m.stageFailures))
	for k, v := range m.stageFailures {
		out[k] = v
	}
	return out
}

// MetricsSnapshot is the JSON form of /metrics?format=json.
type MetricsSnapshot struct {
	// Version is the library/daemon build version (mahjong.Version),
	// exported to Prometheus as the mahjongd_build_info gauge.
	Version string `json:"version"`

	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCancelled int64 `json:"jobs_cancelled"`
	JobsRejected  int64 `json:"jobs_rejected"`
	JobsRunning   int64 `json:"jobs_running"`
	JobsQueued    int64 `json:"jobs_queued"`
	JobsDegraded  int64 `json:"jobs_degraded"`

	// Overload control: rejection causes, shedding, auto-degradation,
	// and the per-class queue picture (docs/ROBUSTNESS.md).
	JobsRejectedFull int64 `json:"jobs_rejected_full"`
	JobsRejectedWait int64 `json:"jobs_rejected_wait"`
	JobsShed         int64 `json:"jobs_shed"`
	JobsAutodegraded int64 `json:"jobs_autodegraded"`
	// QueueDepthByClass / InFlightByClass gauge the scheduler per class
	// ("interactive", "incremental", "batch").
	QueueDepthByClass map[string]int64 `json:"queue_depth_by_class"`
	InFlightByClass   map[string]int64 `json:"in_flight_by_class"`
	// QueueWait histograms time-in-queue across all jobs.
	QueueWait StageDuration `json:"queue_wait"`

	PanicsRecovered int64 `json:"panics_recovered"`
	BudgetExhausted int64 `json:"budget_exhausted"`
	// StageFailures counts job failures by pipeline stage.
	StageFailures map[string]int64 `json:"stage_failures"`

	CacheHits        int64 `json:"abstraction_cache_hits"`
	CacheMisses      int64 `json:"abstraction_cache_misses"`
	CacheEntries     int64 `json:"abstraction_cache_entries"`
	CacheQuarantined int64 `json:"abstraction_cache_quarantined"`

	// Delta (incremental) job counters and the retained-state gauge.
	DeltaJobs      int64 `json:"delta_jobs"`
	DeltaWarm      int64 `json:"delta_warm"`
	DeltaFallbacks int64 `json:"delta_fallbacks"`
	DeltaStates    int64 `json:"delta_states_retained"`

	// Demand-query counters by answer source.
	QueriesTotal  int64 `json:"queries_total"`
	QueriesFull   int64 `json:"queries_full"`
	QueriesCHA    int64 `json:"queries_cha"`
	QueriesDemand int64 `json:"queries_demand"`
	QueryErrors   int64 `json:"query_errors"`

	SolverWork     int64 `json:"solver_work_units"`
	PreAnalysisMS  int64 `json:"pre_analysis_ms"`
	FPGBuildMS     int64 `json:"fpg_build_ms"`
	HeapModelingMS int64 `json:"heap_modeling_ms"`
	AnalysisMS     int64 `json:"analysis_ms"`

	SolverPropagatedFacts int64 `json:"solver_propagated_facts"`
	SolverSCCsCollapsed   int64 `json:"solver_sccs_collapsed"`
	SolverNodesCollapsed  int64 `json:"solver_nodes_collapsed"`
	SolverFilterMaskHits  int64 `json:"solver_filter_mask_hits"`

	// StageDurations histograms pipeline-stage wall time, fed from the
	// span trees of finished job attempts.
	StageDurations map[string]StageDuration `json:"stage_durations"`
}

func (m *metrics) snapshot(depths, inflight [sched.NumClasses]int, cacheEntries, deltaStates int) MetricsSnapshot {
	ms := func(ns int64) int64 { return ns / int64(time.Millisecond) }
	queued := 0
	depthByClass := make(map[string]int64, sched.NumClasses)
	inflightByClass := make(map[string]int64, sched.NumClasses)
	for c, name := range sched.ClassNames() {
		queued += depths[c]
		depthByClass[name] = int64(depths[c])
		inflightByClass[name] = int64(inflight[c])
	}
	return MetricsSnapshot{
		Version: mahjong.Version,

		JobsSubmitted: m.jobsSubmitted.Load(),
		JobsCompleted: m.jobsCompleted.Load(),
		JobsFailed:    m.jobsFailed.Load(),
		JobsCancelled: m.jobsCancelled.Load(),
		JobsRejected:  m.jobsRejected.Load(),
		JobsRunning:   m.jobsRunning.Load(),
		JobsQueued:    int64(queued),
		JobsDegraded:  m.jobsDegraded.Load(),

		JobsRejectedFull:  m.rejectedFull.Load(),
		JobsRejectedWait:  m.rejectedWait.Load(),
		JobsShed:          m.jobsShed.Load(),
		JobsAutodegraded:  m.jobsAutodegraded.Load(),
		QueueDepthByClass: depthByClass,
		InFlightByClass:   inflightByClass,
		QueueWait:         m.queueWait.snapshot(),

		PanicsRecovered: m.panicsRecovered.Load(),
		BudgetExhausted: m.budgetExhausted.Load(),
		StageFailures:   m.stageFailureSnapshot(),

		CacheHits:        m.cacheHits.Load(),
		CacheMisses:      m.cacheMisses.Load(),
		CacheEntries:     int64(cacheEntries),
		CacheQuarantined: m.cacheQuarantined.Load(),

		DeltaJobs:      m.deltaJobs.Load(),
		DeltaWarm:      m.deltaWarm.Load(),
		DeltaFallbacks: m.deltaFallbacks.Load(),
		DeltaStates:    int64(deltaStates),

		QueriesTotal:  m.queriesTotal.Load(),
		QueriesFull:   m.queriesFull.Load(),
		QueriesCHA:    m.queriesCHA.Load(),
		QueriesDemand: m.queriesDemand.Load(),
		QueryErrors:   m.queryErrors.Load(),

		SolverWork:     m.solverWork.Load(),
		PreAnalysisMS:  ms(m.preNS.Load()),
		FPGBuildMS:     ms(m.fpgNS.Load()),
		HeapModelingMS: ms(m.mergeNS.Load()),
		AnalysisMS:     ms(m.analysisNS.Load()),

		SolverPropagatedFacts: m.solverPropagated.Load(),
		SolverSCCsCollapsed:   m.solverSCCs.Load(),
		SolverNodesCollapsed:  m.solverSCCNodes.Load(),
		SolverFilterMaskHits:  m.solverMaskHits.Load(),

		StageDurations: m.stageDurationSnapshot(),
	}
}

// writeProm renders the snapshot in the Prometheus text exposition
// format (counters and gauges only; no dependency on a client library).
func writeProm(w io.Writer, s MetricsSnapshot) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP mahjongd_build_info Build metadata; the value is always 1, the version rides in the label.\n"+
		"# TYPE mahjongd_build_info gauge\nmahjongd_build_info{version=%q} 1\n", s.Version)
	counter("mahjongd_jobs_submitted_total", "Jobs accepted for execution.", s.JobsSubmitted)
	counter("mahjongd_jobs_completed_total", "Jobs that finished successfully.", s.JobsCompleted)
	counter("mahjongd_jobs_failed_total", "Jobs that ended in an error.", s.JobsFailed)
	counter("mahjongd_jobs_cancelled_total", "Jobs stopped by deadline or explicit cancel.", s.JobsCancelled)
	counter("mahjongd_jobs_rejected_total", "Submissions rejected by admission control (queue full, wait estimate, shutdown).", s.JobsRejected)
	counter("mahjongd_jobs_rejected_full_total", "Submissions rejected because the queue was at capacity.", s.JobsRejectedFull)
	counter("mahjongd_jobs_rejected_wait_total", "Submissions rejected because estimated queue wait exceeded the deadline.", s.JobsRejectedWait)
	counter("mahjongd_jobs_shed_total", "Queued jobs failed by deadline expiry before reaching a worker.", s.JobsShed)
	counter("mahjongd_jobs_autodegraded_total", "Batch jobs downgraded to the alloc-site abstraction at admission.", s.JobsAutodegraded)
	gauge("mahjongd_jobs_running", "Jobs currently executing on the worker pool.", s.JobsRunning)
	gauge("mahjongd_jobs_queued", "Jobs waiting for a worker.", s.JobsQueued)
	// Per-class scheduler gauges, emitted in fixed priority order so the
	// exposition stays deterministic.
	fmt.Fprintf(w, "# HELP mahjongd_queue_depth Jobs waiting for a worker, by scheduling class.\n# TYPE mahjongd_queue_depth gauge\n")
	for _, name := range sched.ClassNames() {
		fmt.Fprintf(w, "mahjongd_queue_depth{class=%q} %d\n", name, s.QueueDepthByClass[name])
	}
	fmt.Fprintf(w, "# HELP mahjongd_jobs_in_flight Jobs executing on the worker pool, by scheduling class.\n# TYPE mahjongd_jobs_in_flight gauge\n")
	for _, name := range sched.ClassNames() {
		fmt.Fprintf(w, "mahjongd_jobs_in_flight{class=%q} %d\n", name, s.InFlightByClass[name])
	}
	// Queue-wait histogram, same fixed bounds as the stage durations.
	fmt.Fprintf(w, "# HELP mahjongd_queue_wait_seconds Time jobs spent waiting for a worker.\n# TYPE mahjongd_queue_wait_seconds histogram\n")
	for i, bound := range histBoundsNS {
		var cum int64
		if i < len(s.QueueWait.Buckets) {
			cum = s.QueueWait.Buckets[i]
		}
		fmt.Fprintf(w, "mahjongd_queue_wait_seconds_bucket{le=%q} %d\n", promBound(bound), cum)
	}
	fmt.Fprintf(w, "mahjongd_queue_wait_seconds_bucket{le=\"+Inf\"} %d\n", s.QueueWait.Count)
	fmt.Fprintf(w, "mahjongd_queue_wait_seconds_sum %g\n", float64(s.QueueWait.SumMS)/1e3)
	fmt.Fprintf(w, "mahjongd_queue_wait_seconds_count %d\n", s.QueueWait.Count)
	counter("mahjongd_jobs_degraded_total", "Jobs completed on the allocation-site fallback abstraction.", s.JobsDegraded)
	counter("mahjongd_panics_recovered_total", "Panics recovered at pipeline-stage boundaries.", s.PanicsRecovered)
	counter("mahjongd_budget_exhausted_total", "Jobs that hit a resource budget limit.", s.BudgetExhausted)
	fmt.Fprintf(w, "# HELP mahjongd_stage_failures_total Job failures by pipeline stage.\n# TYPE mahjongd_stage_failures_total counter\n")
	// Every known stage gets a series (zero-valued until it fails), plus
	// any stage observed at runtime that the registry does not know —
	// belt and braces; stagehook keeps the two in sync statically.
	stages := append([]string(nil), knownStages...)
	for stage := range s.StageFailures {
		if !slices.Contains(stages, stage) {
			stages = append(stages, stage)
		}
	}
	sort.Strings(stages)
	for _, stage := range stages {
		fmt.Fprintf(w, "mahjongd_stage_failures_total{stage=%q} %d\n", stage, s.StageFailures[stage])
	}
	counter("mahjongd_abstraction_cache_hits_total", "Abstraction builds skipped via the cache.", s.CacheHits)
	counter("mahjongd_abstraction_cache_misses_total", "Abstraction builds performed and cached.", s.CacheMisses)
	gauge("mahjongd_abstraction_cache_entries", "Abstractions currently cached.", s.CacheEntries)
	counter("mahjongd_abstraction_cache_quarantined_total", "Corrupt cache entries quarantined.", s.CacheQuarantined)
	counter("mahjongd_delta_jobs_total", "Jobs submitted with a base_job_id.", s.DeltaJobs)
	counter("mahjongd_delta_warm_total", "Delta jobs whose abstraction was warm-started from the base state.", s.DeltaWarm)
	counter("mahjongd_delta_fallbacks_total", "Delta jobs that fell back to the from-scratch build.", s.DeltaFallbacks)
	gauge("mahjongd_delta_states_retained", "Completed-job analysis states retained for incremental reuse.", s.DeltaStates)
	counter("mahjongd_queries_total", "Demand queries received on POST /jobs/{id}/query.", s.QueriesTotal)
	counter("mahjongd_queries_full_total", "Demand queries answered exactly from a completed job's result.", s.QueriesFull)
	counter("mahjongd_queries_cha_total", "Demand queries short-circuited by CHA unreachability.", s.QueriesCHA)
	counter("mahjongd_queries_demand_total", "Demand queries answered by the bounded context-insensitive solve.", s.QueriesDemand)
	counter("mahjongd_query_errors_total", "Demand queries that ended in an error.", s.QueryErrors)
	counter("mahjongd_solver_work_units_total", "Points-to propagation work across main analyses.", s.SolverWork)
	counter("mahjongd_pre_analysis_milliseconds_total", "Time spent in context-insensitive pre-analyses.", s.PreAnalysisMS)
	counter("mahjongd_fpg_build_milliseconds_total", "Time spent building field points-to graphs.", s.FPGBuildMS)
	counter("mahjongd_heap_modeling_milliseconds_total", "Time spent merging equivalent automata.", s.HeapModelingMS)
	counter("mahjongd_analysis_milliseconds_total", "Time spent in main points-to analyses.", s.AnalysisMS)
	counter("mahjongd_solver_propagated_facts_total", "Points-to facts pushed through solver worklists.", s.SolverPropagatedFacts)
	counter("mahjongd_solver_sccs_collapsed_total", "Copy cycles collapsed onto representatives.", s.SolverSCCsCollapsed)
	counter("mahjongd_solver_nodes_collapsed_total", "Pointer nodes folded into cycle representatives.", s.SolverNodesCollapsed)
	counter("mahjongd_solver_filter_mask_hits_total", "Filtered propagations served by class-indexed masks.", s.SolverFilterMaskHits)

	// Stage-duration histograms: one series set per registered stage in
	// sorted order (collect-sort-emit keeps the exposition deterministic).
	fmt.Fprintf(w, "# HELP mahjongd_stage_duration_seconds Pipeline stage wall time from job span traces.\n# TYPE mahjongd_stage_duration_seconds histogram\n")
	hstages := make([]string, 0, len(s.StageDurations))
	for stage := range s.StageDurations {
		hstages = append(hstages, stage)
	}
	sort.Strings(hstages)
	for _, stage := range hstages {
		sd := s.StageDurations[stage]
		for i, bound := range histBoundsNS {
			var cum int64
			if i < len(sd.Buckets) {
				cum = sd.Buckets[i]
			}
			fmt.Fprintf(w, "mahjongd_stage_duration_seconds_bucket{stage=%q,le=%q} %d\n",
				stage, promBound(bound), cum)
		}
		fmt.Fprintf(w, "mahjongd_stage_duration_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", stage, sd.Count)
		fmt.Fprintf(w, "mahjongd_stage_duration_seconds_sum{stage=%q} %g\n", stage, float64(sd.SumMS)/1e3)
		fmt.Fprintf(w, "mahjongd_stage_duration_seconds_count{stage=%q} %d\n", stage, sd.Count)
	}
}

// promBound renders a nanosecond bucket bound as a seconds le= label
// ("0.001", "0.01", …, "100").
func promBound(ns int64) string {
	return fmt.Sprintf("%g", float64(ns)/float64(time.Second))
}
