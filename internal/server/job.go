package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mahjong"
	"mahjong/internal/sched"
	"mahjong/internal/trace"
)

// JobState is the lifecycle state of a submitted analysis job.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: executing on the worker pool.
	StateRunning JobState = "running"
	// StateDone: finished; query endpoints serve its results.
	StateDone JobState = "done"
	// StateFailed: ended in an error (bad analysis config, solver error).
	StateFailed JobState = "failed"
	// StateCancelled: stopped by its deadline or an explicit cancel.
	StateCancelled JobState = "cancelled"
)

// Cause says why a job reached StateFailed or StateCancelled. The set
// is closed: load harnesses and dashboards bucket terminal jobs by it.
type Cause string

const (
	// CauseShed: the deadline expired while the job was still queued.
	CauseShed Cause = "shed"
	// CauseDeadline: the deadline expired while the job was running.
	CauseDeadline Cause = "deadline"
	// CauseCancelled: a client cancelled the job.
	CauseCancelled Cause = "cancelled"
	// CauseRejected: the scheduler refused the job at submission.
	CauseRejected Cause = "rejected"
	// CauseShutdown: the server shut down before or while the job ran.
	CauseShutdown Cause = "shutdown"
	// CauseError: the pipeline returned an error.
	CauseError Cause = "error"
)

// JobSpec is the JSON body of POST /jobs. Exactly one of IR and
// Benchmark selects the program.
type JobSpec struct {
	// IR is a whole program in the textual IR format.
	IR string `json:"ir,omitempty"`
	// Benchmark names a built-in benchmark ("pmd", "luindex", …).
	Benchmark string `json:"benchmark,omitempty"`
	// Analysis selects the sensitivity ("ci", "2obj", …); default "ci".
	Analysis string `json:"analysis,omitempty"`
	// Heap selects the abstraction; default "mahjong".
	Heap string `json:"heap,omitempty"`
	// BudgetWork caps propagation work (0 = unlimited).
	BudgetWork int64 `json:"budget_work,omitempty"`
	// TimeoutMS is the per-job deadline in milliseconds; 0 uses the
	// server default. The deadline covers the whole pipeline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Degrade controls the graceful-degradation fallback: when building
	// the Mahjong abstraction panics or exhausts its resource budget, the
	// job re-runs on the plain allocation-site abstraction and its result
	// is marked degraded. nil uses the server default (on unless the
	// daemon was started with -no-degrade).
	Degrade *bool `json:"degrade,omitempty"`
	// BudgetFacts, BudgetWords and BudgetPairs cap the job's resource
	// use (propagated facts, cumulative points-to words grown by the
	// job's solves, automata merge pairs), overriding the server-wide
	// defaults; 0 keeps the default.
	BudgetFacts int64 `json:"budget_facts,omitempty"`
	BudgetWords int64 `json:"budget_words,omitempty"`
	BudgetPairs int64 `json:"budget_pairs,omitempty"`
	// BaseJobID names a previously completed job whose retained analysis
	// state this job's abstraction build should solve incrementally
	// against (mahjong heap only). Finished jobs are kept for the
	// daemon's lifetime, but only the Config.DeltaStates most recently
	// used analysis states are retained. When the base state is
	// unavailable — the job failed, its state was evicted from that LRU,
	// or it never built a Mahjong abstraction — the build silently falls
	// back to from-scratch and records the reason in the job view.
	BaseJobID string `json:"base_job_id,omitempty"`
	// Class selects the scheduling class: "interactive" (default),
	// "incremental" (the default when base_job_id is set), or "batch".
	// Interactive dequeues before incremental before batch; batch is the
	// first class auto-degraded under queue pressure (docs/ROBUSTNESS.md).
	Class string `json:"class,omitempty"`
}

// job is one submission. The mutex guards the mutable state; results
// are written once before the state moves to a terminal value and are
// only read by handlers after observing that state.
type job struct {
	id      string
	spec    JobSpec
	created time.Time
	// class is the resolved scheduling class; deadline the absolute
	// per-job deadline computed at submission (zero = none). Both are
	// fixed before the job is enqueued.
	class    sched.Class
	deadline time.Time
	// qitem is the job's scheduler entry, kept so cancellation can
	// release the queue slot immediately instead of at dequeue.
	qitem *sched.Item
	// autoDegraded marks a batch job the admission controller downgraded
	// to the alloc-site abstraction before it ran (degradation ladder).
	autoDegraded bool

	mu       sync.Mutex
	state    JobState
	errMsg   string
	cause    Cause // set with every move to StateFailed or StateCancelled
	cacheHit bool
	// degraded marks a job that completed on the allocation-site
	// fallback after the Mahjong pipeline failed; degradedCause records
	// why (the original error).
	degraded      bool
	degradedCause string
	// retriable marks a failure caused by the server (shutdown before
	// the job started), not the job itself: the same submission should
	// succeed on a live server.
	retriable bool
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc // non-nil while running
	// deltaUsed marks an abstraction actually warm-started from the base
	// job named in spec.BaseJobID; deltaReason records why it was not
	// (unavailable base, shape change, cache hit, …).
	deltaUsed   bool
	deltaReason string

	prog *mahjong.Program
	abs  *mahjong.Abstraction
	rep  *mahjong.Report
	// query caches the per-job demand-query state (private program, CHA
	// graph, bounded solve) so repeated /query calls share one solve.
	query   *queryState
	queryMu sync.Mutex
	// traces holds one snapshotted span tree per pipeline attempt: a
	// degraded job carries the failed Mahjong attempt and the alloc-site
	// re-run side by side.
	traces []*trace.Trace
	// qspan is the open server.queue span covering the job's wait for a
	// worker; queueTrace is its snapshot, taken exactly once (qspan nils
	// out) whichever end the wait finds first — dequeue, shed, cancel, or
	// shutdown drain. It is served as a separate field of /jobs/{id}/trace
	// so attempt traces keep their root-is-server.job shape.
	qtr        *trace.Tracer
	qspan      trace.Span
	queueTrace *trace.Trace
}

// addTrace appends one attempt's snapshotted span tree.
func (j *job) addTrace(t *trace.Trace) {
	j.mu.Lock()
	j.traces = append(j.traces, t)
	j.mu.Unlock()
}

// traceSnapshots returns the job's per-attempt traces. Each element is
// an immutable snapshot, so only the slice header needs copying.
func (j *job) traceSnapshots() []*trace.Trace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]*trace.Trace(nil), j.traces...)
}

// closeQueueSpan ends the job's server.queue span with err's failure
// class and snapshots it, exactly once: dequeue, shed, client cancel and
// shutdown drain all race to be the end of the wait, and whichever gets
// there first wins. Returns the snapshot and the measured queue wait
// (nil, 0 on every later call).
func (j *job) closeQueueSpan(err error) (*trace.Trace, time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.qtr == nil {
		return nil, 0
	}
	j.qspan.Close(err)
	j.queueTrace = j.qtr.Snapshot()
	j.qtr = nil
	var wait time.Duration
	if j.qitem != nil && !j.qitem.Enqueued.IsZero() {
		wait = time.Since(j.qitem.Enqueued)
	}
	return j.queueTrace, wait
}

// queueTraceSnapshot returns the snapshotted queue span, nil while the
// job is still waiting.
func (j *job) queueTraceSnapshot() *trace.Trace {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.queueTrace
}

// view is the JSON rendering of a job's status.
type view struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Error     string   `json:"error,omitempty"`
	Cause     Cause    `json:"cause,omitempty"`
	Benchmark string   `json:"benchmark,omitempty"`
	Analysis  string   `json:"analysis"`
	Heap      string   `json:"heap"`
	// Class is the resolved scheduling class ("interactive",
	// "incremental", "batch").
	Class    string `json:"class"`
	CacheHit bool   `json:"abstraction_cache_hit"`
	Degraded bool   `json:"degraded,omitempty"`
	// DegradedCause explains a degraded result: the error that made the
	// job fall back to the allocation-site abstraction.
	DegradedCause string `json:"degraded_cause,omitempty"`
	// Retriable marks a failure the client should retry (the server shut
	// down before the job started); paired with HTTP 503 + Retry-After.
	Retriable bool `json:"retriable,omitempty"`
	// BaseJobID echoes the requested incremental base; DeltaUsed reports
	// whether the abstraction was actually warm-started from it, and
	// DeltaReason explains a fallback to the from-scratch build.
	BaseJobID   string `json:"base_job_id,omitempty"`
	DeltaUsed   bool   `json:"delta_used,omitempty"`
	DeltaReason string `json:"delta_reason,omitempty"`
	Created     string `json:"created"`
	Started     string `json:"started,omitempty"`
	Finished    string `json:"finished,omitempty"`

	Result *resultView `json:"result,omitempty"`
}

// resultView summarizes a completed job.
type resultView struct {
	Scalable       bool    `json:"scalable"`
	TimeMS         int64   `json:"time_ms"`
	Work           int64   `json:"work"`
	CSObjects      int     `json:"cs_objects"`
	CSMethods      int     `json:"cs_methods"`
	CallGraphEdges int     `json:"call_graph_edges"`
	PolyCallSites  int     `json:"poly_call_sites"`
	MayFailCasts   int     `json:"may_fail_casts"`
	Reachable      int     `json:"reachable_methods"`
	Objects        int     `json:"objects,omitempty"`
	MergedObjects  int     `json:"merged_objects,omitempty"`
	Reduction      float64 `json:"reduction,omitempty"`
}

func (j *job) view() view {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := view{
		ID:            j.id,
		State:         j.state,
		Error:         j.errMsg,
		Cause:         j.cause,
		Benchmark:     j.spec.Benchmark,
		Analysis:      defaulted(j.spec.Analysis, "ci"),
		Heap:          defaulted(j.spec.Heap, string(mahjong.HeapMahjong)),
		Class:         j.class.String(),
		CacheHit:      j.cacheHit,
		Degraded:      j.degraded,
		DegradedCause: j.degradedCause,
		Retriable:     j.retriable,
		BaseJobID:     j.spec.BaseJobID,
		DeltaUsed:     j.deltaUsed,
		DeltaReason:   j.deltaReason,
		Created:       j.created.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.state == StateDone && j.rep != nil {
		rv := &resultView{
			Scalable:       j.rep.Scalable,
			TimeMS:         j.rep.Time.Milliseconds(),
			Work:           j.rep.Work,
			CSObjects:      j.rep.CSObjects,
			CSMethods:      j.rep.CSMethods,
			CallGraphEdges: j.rep.Metrics.CallGraphEdges,
			PolyCallSites:  j.rep.Metrics.PolyCallSites,
			MayFailCasts:   j.rep.Metrics.MayFailCasts,
			Reachable:      j.rep.Metrics.Reachable,
		}
		if j.abs != nil {
			rv.Objects = j.abs.Objects
			rv.MergedObjects = j.abs.MergedObjects
			rv.Reduction = j.abs.Reduction()
		}
		v.Result = rv
	}
	return v
}

// ready returns the completed report and program, or an error naming
// the job's current (non-done) state.
func (j *job) ready() (*mahjong.Report, *mahjong.Program, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, nil, fmt.Errorf("job %s is %s, not done", j.id, j.state)
	}
	return j.rep, j.prog, nil
}

func defaulted(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// jobStore indexes jobs by ID in submission order.
type jobStore struct {
	mu   sync.Mutex
	seq  int
	byID map[string]*job
	all  []*job
}

func newJobStore() *jobStore {
	return &jobStore{byID: make(map[string]*job)}
}

func (s *jobStore) add(spec JobSpec, prog *mahjong.Program, class sched.Class, deadline time.Time) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &job{
		id:       fmt.Sprintf("j%d", s.seq),
		spec:     spec,
		created:  time.Now(),
		class:    class,
		deadline: deadline,
		state:    StateQueued,
		prog:     prog,
	}
	s.byID[j.id] = j
	s.all = append(s.all, j)
	return j
}

func (s *jobStore) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

func (s *jobStore) list() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, len(s.all))
	copy(out, s.all)
	return out
}
