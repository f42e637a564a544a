// Package server implements mahjongd: a long-running analysis service
// wrapping the Mahjong pipeline. Programs (textual IR or built-in
// benchmark names) are submitted as asynchronous jobs, executed on a
// bounded worker pool under per-job deadlines (context cancellation is
// threaded down to the solver worklist and the parallel merge workers),
// and their results — points-to sets, call graphs, may-fail casts, poly
// call sites — are served from completed jobs. Built abstractions are
// cached by content hash of the canonical IR, so repeated analyses of
// the same program skip the pre-analysis + merge entirely.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mahjong"
	"mahjong/internal/clients"
	"mahjong/internal/export"
	"mahjong/internal/failure"
	"mahjong/internal/faultinject"
	"mahjong/internal/lang"
	"mahjong/internal/sched"
	"mahjong/internal/trace"
)

// Config tunes a Server.
type Config struct {
	// Workers is the worker-pool size; 0 = 2.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; a full queue rejects
	// submissions with 429 + Retry-After. 0 = 64.
	QueueDepth int
	// NoAdmission disables wait-estimate admission control: submissions
	// are then rejected only when the queue is at capacity or the server
	// is shutting down. Admission control is on by default — a job whose
	// estimated queue wait already exceeds its deadline is rejected with
	// 429 instead of burning a queue slot it cannot use.
	NoAdmission bool
	// ClassQuotas caps concurrent jobs per scheduling class (priority
	// order interactive, incremental, batch); 0 = uncapped. Quotas are
	// work-conserving: a class at quota yields to other pending classes
	// but still runs when nothing else is waiting.
	ClassQuotas [sched.NumClasses]int
	// AutodegradeWait is the degradation-ladder threshold: when a new
	// batch job's estimated queue wait exceeds it, the job is downgraded
	// to the alloc-site abstraction at admission (cheaper, still sound)
	// before the server resorts to rejection. 0 disables the ladder.
	AutodegradeWait time.Duration
	// DefaultTimeout is the per-job deadline applied when a submission
	// does not set timeout_ms; 0 = no deadline.
	DefaultTimeout time.Duration
	// CacheEntries caps the abstraction cache; 0 = 64, negative = unbounded.
	CacheEntries int
	// ShutdownGrace bounds how long Close waits for in-flight jobs
	// before cancelling them; 0 = 5s, negative = wait forever.
	ShutdownGrace time.Duration
	// MaxProgramBytes caps the POST /jobs request body; 0 = 8 MiB.
	MaxProgramBytes int64
	// Budget is the default per-job resource budget (zero = unlimited);
	// submissions may override individual limits.
	Budget mahjong.ResourceBudget
	// NoDegrade disables the allocation-site fallback for jobs that do
	// not set "degrade" explicitly (degradation defaults to on).
	NoDegrade bool
	// SlowJob, when positive, logs the span tree of every job whose
	// execution takes at least this long; 0 disables the slow-job log.
	SlowJob time.Duration
	// SlowJobLog receives slow-job span trees; nil = os.Stderr. Writes
	// are whole trees (one Write call each), so any io.Writer whose
	// Write is atomic works concurrently.
	SlowJobLog io.Writer
	// DeltaStates caps how many completed jobs keep their analysis state
	// retained for incremental (base_job_id) resubmissions; 0 = 4,
	// negative = unbounded. States are heavyweight (program + saturated
	// pre-analysis + merge decisions), so the default is small.
	DeltaStates int
	// QueryBudget caps the propagation work of the demand solve behind
	// POST /jobs/{id}/query; 0 = 200k units, negative = unlimited.
	QueryBudget int64
}

// maxTimeoutMS caps timeout_ms at 24 hours: beyond that a "timeout" is
// an absurd value (likely a unit confusion) rather than a deadline.
const maxTimeoutMS = int64(24 * time.Hour / time.Millisecond)

// Server is the analysis daemon. It implements http.Handler; create
// one with New and release its workers with Close.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	store   *jobStore
	schedq  *sched.Queue
	cache   *absCache
	deltas  *deltaStore
	metrics *metrics
	quit    chan struct{}
	stop    func()
	done    chan struct{}

	// baseCtx is the root every job context derives from; cancelBase is
	// the final step of the shutdown drain. Deriving jobs from a
	// server-lifetime context (instead of a detached context.Background
	// per job) guarantees Close cancels ALL in-flight work — including a
	// job that races into a worker between the queue drain and the
	// per-job cancelRunning sweep, which previously kept an uncancellable
	// context and could stall Close indefinitely.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	// closing flips once Close begins: submissions are rejected with a
	// retriable 503 while in-flight jobs drain.
	closing atomic.Bool
}

// New returns a Server with its worker pool started.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	cacheCap := cfg.CacheEntries
	if cacheCap == 0 {
		cacheCap = 64
	}
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		store:   newJobStore(),
		cache:   newAbsCache(cacheCap),
		deltas:  newDeltaStore(cfg.DeltaStates),
		metrics: newMetrics(),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	s.schedq = sched.New(sched.Config{
		Capacity: cfg.QueueDepth,
		Workers:  cfg.Workers,
		Quotas:   cfg.ClassQuotas,
		OnExpire: s.shedExpired,
	})
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background()) //lint:allow ctxflow server-lifetime root created once at construction; every job context derives from it so Close cancels in-flight work
	s.routes()
	workerDone := make(chan struct{})
	running := cfg.Workers
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			s.worker()
			workerDone <- struct{}{}
		}()
	}
	go func() {
		for ; running > 0; running-- {
			<-workerDone
		}
		close(s.done)
	}()
	var closeOnce sync.Once
	s.stop = func() { closeOnce.Do(s.shutdown) }
	return s
}

// Close shuts the server down gracefully: new submissions are rejected
// with a retriable 503, queued-but-unstarted jobs are failed as
// retriable, in-flight jobs get Config.ShutdownGrace to finish and are
// then cancelled, and finally the worker pool exits. Close returns once
// every worker has stopped.
func (s *Server) Close() {
	s.stop()
	<-s.done
	// Workers are gone. The scheduler was closed by shutdown, so no
	// submission can race new work in (Push returns ErrClosed); release
	// the base context, which with a negative ShutdownGrace — wait
	// forever — is still live.
	s.cancelBase()
}

// shutdown implements the drain sequence (runs once, via s.stop).
func (s *Server) shutdown() {
	s.closing.Store(true)
	// Closing the scheduler stops intake (later Pushes get ErrClosed),
	// hands back every still-pending job to be failed as retriable, and
	// lets each worker exit after its current job.
	s.failQueued(s.schedq.Close())
	grace := s.cfg.ShutdownGrace
	if grace == 0 {
		grace = 5 * time.Second
	}
	if grace > 0 {
		select {
		case <-s.done: // every worker finished and exited
		case <-time.After(grace):
		}
		// Grace expired (or everything drained): cancel whatever is
		// still running so the workers can exit promptly. The solver and
		// merge workers poll their context, so cancellation propagates.
		// cancelBase closes the base context under every job — including
		// one that raced into a worker after the cancelRunning sweep.
		s.cancelRunning()
		s.cancelBase()
	}
	close(s.quit)
}

// failQueued fails each not-yet-started job the scheduler drain handed
// back as retriable: on a dying server "queued" would otherwise be a
// forever state, and the same submission succeeds on a live server.
func (s *Server) failQueued(items []*sched.Item) {
	for _, it := range items {
		j, ok := it.Payload.(*job)
		if !ok {
			continue
		}
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateFailed
			j.cause = CauseShutdown
			j.retriable = true
			j.errMsg = "server shutting down before the job started; retry against a live server"
			j.finished = time.Now()
			s.metrics.jobsFailed.Add(1)
		}
		j.mu.Unlock()
		s.finishQueueWait(j, errors.New("server shutting down"))
	}
}

// shedExpired is the scheduler's OnExpire callback: the job's deadline
// ran out while it was still waiting for a worker, so it is failed here
// — terminal immediately, queue slot already released — without ever
// touching the solver.
func (s *Server) shedExpired(it *sched.Item) {
	j, ok := it.Payload.(*job)
	if !ok {
		return
	}
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCancelled
		j.cause = CauseShed
		j.errMsg = "deadline expired while queued; job shed before execution"
		j.finished = time.Now()
		s.metrics.jobsCancelled.Add(1)
		s.metrics.jobsShed.Add(1)
	}
	j.mu.Unlock()
	s.finishQueueWait(j, context.DeadlineExceeded)
}

// finishQueueWait ends the job's queued phase: the server.queue span is
// closed (tagged with cause's failure class) and its snapshot feeds the
// stage-duration histograms plus the queue-wait histogram. Idempotent —
// dequeue, shed, client cancel and shutdown drain all call it, first
// one wins.
func (s *Server) finishQueueWait(j *job, cause error) {
	snap, wait := j.closeQueueSpan(cause)
	if snap == nil {
		return
	}
	s.metrics.observeTrace(snap)
	s.metrics.observeQueueWait(wait)
}

// cancelRunning cancels the context of every running job.
func (s *Server) cancelRunning() {
	for _, j := range s.store.list() {
		j.mu.Lock()
		if j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
}

// ServeHTTP implements http.Handler. A panic in a handler is recovered
// into a 500 (per-request isolation; http.ErrAbortHandler passes
// through as the net/http-sanctioned abort).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel comparison per net/http docs
				panic(rec)
			}
			s.metrics.panicsRecovered.Add(1)
			httpError(w, http.StatusInternalServerError, "internal error: %v", rec)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /jobs/{id}/query", s.handleQuery)
	s.mux.HandleFunc("GET /jobs/{id}/pointsto", s.handlePointsTo)
	s.mux.HandleFunc("GET /jobs/{id}/callgraph", s.handleCallGraph)
	s.mux.HandleFunc("GET /jobs/{id}/casts", s.handleCasts)
	s.mux.HandleFunc("GET /jobs/{id}/polycalls", s.handlePolyCalls)
	s.mux.HandleFunc("GET /jobs/{id}/abstraction", s.handleAbstraction)
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
}

// ---- submission ----

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		s.metrics.jobsRejected.Add(1)
		httpReject(w, http.StatusServiceUnavailable, time.Second, "server is shutting down; retry against a live server")
		return
	}
	maxBytes := s.cfg.MaxProgramBytes
	if maxBytes <= 0 {
		maxBytes = 8 << 20
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	var prog *mahjong.Program
	switch {
	case spec.IR != "" && spec.Benchmark != "":
		httpError(w, http.StatusBadRequest, "set either ir or benchmark, not both")
		return
	case spec.IR == "" && spec.Benchmark == "":
		httpError(w, http.StatusBadRequest, "missing program: set ir or benchmark (available: %v)", mahjong.BenchmarkNames())
		return
	case spec.IR != "":
		p, err := mahjong.ParseProgram("submission", spec.IR)
		if err != nil {
			httpError(w, http.StatusBadRequest, "invalid IR: %v", err)
			return
		}
		prog = p
	default:
		if !slices.Contains(mahjong.BenchmarkNames(), spec.Benchmark) {
			httpError(w, http.StatusBadRequest, "unknown benchmark %q (available: %v)", spec.Benchmark, mahjong.BenchmarkNames())
			return
		}
	}
	if !mahjong.ValidAnalysis(spec.Analysis) {
		httpError(w, http.StatusBadRequest, "unknown analysis %q", spec.Analysis)
		return
	}
	switch mahjong.HeapKind(defaulted(spec.Heap, string(mahjong.HeapMahjong))) {
	case mahjong.HeapAllocSite, mahjong.HeapAllocType, mahjong.HeapMahjong:
	default:
		httpError(w, http.StatusBadRequest, "unknown heap kind %q", spec.Heap)
		return
	}
	if spec.TimeoutMS < 0 || spec.BudgetWork < 0 {
		httpError(w, http.StatusBadRequest, "timeout_ms and budget_work must be non-negative")
		return
	}
	if spec.TimeoutMS > maxTimeoutMS {
		httpError(w, http.StatusBadRequest, "timeout_ms %d exceeds the maximum of %d (24h)", spec.TimeoutMS, maxTimeoutMS)
		return
	}
	if spec.BudgetFacts < 0 || spec.BudgetWords < 0 || spec.BudgetPairs < 0 {
		httpError(w, http.StatusBadRequest, "budget_facts, budget_words and budget_pairs must be non-negative")
		return
	}
	if spec.BaseJobID != "" && mahjong.HeapKind(defaulted(spec.Heap, string(mahjong.HeapMahjong))) != mahjong.HeapMahjong {
		httpError(w, http.StatusBadRequest, "base_job_id requires the mahjong heap (got %q)", spec.Heap)
		return
	}
	class, ok := classFor(spec)
	if !ok {
		httpError(w, http.StatusBadRequest, "unknown class %q (want interactive, incremental or batch)", spec.Class)
		return
	}

	// Absolute deadline, fixed at submission: queue wait counts against
	// it, so a job cannot spend its whole budget waiting and then start a
	// doomed solve.
	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}

	// Admission control: estimate this class's queue wait and reject the
	// job if it already exceeds the deadline — the client learns "try
	// later" now instead of a deadline failure after queueing. The
	// StageAdmit seam fires inside; a fault there rejects this one
	// submission as retriable and leaves intake healthy.
	est, aerr := s.admitCheck(class)
	if aerr != nil {
		s.metrics.jobsRejected.Add(1)
		httpReject(w, http.StatusServiceUnavailable, time.Second, "admission check failed: %v", aerr)
		return
	}
	if !s.cfg.NoAdmission && !deadline.IsZero() && est > time.Until(deadline) {
		s.metrics.jobsRejected.Add(1)
		s.metrics.rejectedWait.Add(1)
		httpReject(w, http.StatusTooManyRequests, est, "estimated queue wait %v exceeds the job deadline; retry later", est.Round(time.Millisecond))
		return
	}
	// Degradation ladder: a batch job facing a long (but survivable)
	// wait runs on the cheaper alloc-site abstraction instead of adding
	// a full Mahjong build to an already-loaded queue.
	autoDegrade := s.cfg.AutodegradeWait > 0 && est > s.cfg.AutodegradeWait &&
		class == sched.Batch && s.degradeEnabled(spec) &&
		mahjong.HeapKind(defaulted(spec.Heap, string(mahjong.HeapMahjong))) == mahjong.HeapMahjong &&
		spec.BaseJobID == ""

	j := s.store.add(spec, prog, class, deadline)
	it := &sched.Item{Class: class, Deadline: deadline, Payload: j}
	j.mu.Lock()
	j.qitem = it
	j.qtr = trace.New()
	j.qspan = j.qtr.Root().Start(faultinject.StageQueue)
	if autoDegrade {
		j.autoDegraded = true
		j.degraded = true
		j.degradedCause = fmt.Sprintf("auto-degraded at admission: estimated queue wait %v exceeded the %v threshold",
			est.Round(time.Millisecond), s.cfg.AutodegradeWait)
	}
	j.mu.Unlock()
	if err := s.schedq.Push(it); err != nil {
		// The job is already visible in the store: give it a terminal
		// state so it cannot linger as a zombie "queued" entry.
		j.mu.Lock()
		j.state = StateFailed
		j.cause = CauseRejected
		j.retriable = true
		j.errMsg = "rejected at submission: " + err.Error()
		j.finished = time.Now()
		j.mu.Unlock()
		s.finishQueueWait(j, err)
		s.metrics.jobsRejected.Add(1)
		if errors.Is(err, sched.ErrClosed) {
			httpReject(w, http.StatusServiceUnavailable, time.Second, "server is shutting down; retry against a live server")
			return
		}
		s.metrics.rejectedFull.Add(1)
		httpReject(w, http.StatusTooManyRequests, retryAfterFor(est), "job queue full (%d pending)", s.cfg.QueueDepth)
		return
	}
	s.metrics.jobsSubmitted.Add(1)
	if autoDegrade {
		s.metrics.jobsAutodegraded.Add(1)
	}
	if spec.BaseJobID != "" {
		s.metrics.deltaJobs.Add(1)
	}
	writeJSON(w, http.StatusAccepted, j.view())
}

// classFor resolves a submission's scheduling class: an explicit class
// wins; otherwise base_job_id resubmits default to incremental and
// everything else to interactive.
func classFor(spec JobSpec) (sched.Class, bool) {
	if spec.Class == "" {
		if spec.BaseJobID != "" {
			return sched.Incremental, true
		}
		return sched.Interactive, true
	}
	return sched.ParseClass(spec.Class)
}

// admitCheck runs the admission-control probe: the StageAdmit fault
// seam plus the scheduler's wait estimate. It is its own failure
// boundary — a panic injected (or real) here rejects the one submission
// instead of killing the intake handler.
func (s *Server) admitCheck(class sched.Class) (est time.Duration, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = failure.AsInternal(faultinject.StageAdmit, rec)
		}
		s.noteFailure(err)
	}()
	if err := faultinject.Fire(faultinject.StageAdmit); err != nil {
		return 0, fmt.Errorf("admission: %w", err)
	}
	return s.schedq.EstimatedWait(class), nil
}

// retryAfterFor turns a wait estimate into a Retry-After duration with
// a 1s floor (clients treat 0 as "immediately", which under overload
// just hammers the server).
func retryAfterFor(est time.Duration) time.Duration {
	if est < time.Second {
		return time.Second
	}
	return est
}

// ---- worker pool ----

func (s *Server) worker() {
	for {
		it, ok := s.schedq.Pop()
		if !ok { // scheduler closed: shutdown
			return
		}
		s.serve(it)
	}
}

// serve runs one popped item and returns its per-class in-flight slot.
// The release is deferred: if anything under runJob panics past its
// recover seams, the slot still comes back during unwinding — a leaked
// slot would permanently shrink the class's concurrency share and
// silently starve admission control.
func (s *Server) serve(it *sched.Item) {
	j, isJob := it.Payload.(*job)
	if !isJob {
		s.schedq.Done(it.Class, 0)
		return
	}
	start := time.Now()
	// Report the observed service time back to the scheduler: it feeds
	// the per-class EWMA that admission control and the degradation
	// ladder estimate queue waits from.
	defer func() { s.schedq.Done(it.Class, time.Since(start)) }()
	s.runJob(j)
}

func (s *Server) runJob(j *job) {
	s.finishQueueWait(j, nil)
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	// The job context derives from the server's base context: per-job
	// deadlines and explicit cancels work as before, and shutdown's
	// cancelBase reaches every in-flight job even if it raced past the
	// drain (a detached context.Background here escaped graceful
	// shutdown). The deadline is the absolute one fixed at submission,
	// so time spent queued counts against the job's budget.
	ctx := s.baseCtx
	var cancel context.CancelFunc
	if !j.deadline.IsZero() {
		ctx, cancel = context.WithDeadline(ctx, j.deadline)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()

	s.metrics.jobsRunning.Add(1)
	err := s.executeIsolated(ctx, j)
	s.metrics.jobsRunning.Add(-1)

	j.mu.Lock()
	j.finished = time.Now()
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateDone
		s.metrics.jobsCompleted.Add(1)
		if j.degraded {
			s.metrics.jobsDegraded.Add(1)
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCancelled
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			j.cause = CauseDeadline
		case s.closing.Load():
			// Shutdown cancels every job still running after the grace
			// period; closing is set before that happens.
			j.cause = CauseShutdown
		default:
			j.cause = CauseCancelled
		}
		j.errMsg = err.Error()
		s.metrics.jobsCancelled.Add(1)
	default:
		j.state = StateFailed
		j.cause = CauseError
		j.errMsg = err.Error()
		s.metrics.jobsFailed.Add(1)
	}
	elapsed := j.finished.Sub(j.started)
	j.mu.Unlock()
	if s.cfg.SlowJob > 0 && elapsed >= s.cfg.SlowJob {
		s.logSlowJob(j, elapsed)
	}
}

// logSlowJob dumps a slow job's span trees (one per attempt) to the
// configured slow-job log. The whole report goes out in a single Write
// so concurrent slow jobs do not interleave line-by-line.
func (s *Server) logSlowJob(j *job, elapsed time.Duration) {
	out := s.cfg.SlowJobLog
	if out == nil {
		out = os.Stderr
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "mahjongd: slow job %s took %v (threshold %v); span tree:\n",
		j.id, elapsed.Round(time.Millisecond), s.cfg.SlowJob)
	for i, t := range j.traceSnapshots() {
		if i > 0 {
			fmt.Fprintf(&buf, "--- attempt %d ---\n", i+1)
		}
		t.WriteTree(&buf)
	}
	out.Write(buf.Bytes()) //nolint:errcheck // best-effort diagnostics
}

// executeIsolated is the worker's outermost failure boundary: a panic
// escaping the server-side job plumbing itself (the pipeline stages
// carry their own guards) becomes a typed failure of this one job — the
// worker, the pool, and the daemon survive.
func (s *Server) executeIsolated(ctx context.Context, j *job) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = failure.AsInternal(faultinject.StageJob, rec)
		}
		s.noteFailure(err)
	}()
	// The StageQueue seam models a fault in the scheduler hand-off
	// itself (right after dequeue, before the pipeline). A panic here is
	// recovered above; faultinject.Fire already tagged it with the
	// server.queue stage, which AsInternal preserves.
	if err := faultinject.Fire(faultinject.StageQueue); err != nil {
		return fmt.Errorf("queue hand-off: %w", err)
	}
	if err := faultinject.Fire(faultinject.StageJob); err != nil {
		return fmt.Errorf("job worker: %w", err)
	}
	return s.execute(ctx, j)
}

// noteFailure records failure-classification metrics for a finished
// job: per-stage counters for internal (panic-recovered) errors, and
// the budget-exhaustion counter.
func (s *Server) noteFailure(err error) {
	if err == nil {
		return
	}
	var ie *mahjong.InternalError
	if errors.As(err, &ie) {
		s.metrics.panicsRecovered.Add(1)
		s.metrics.noteStageFailure(ie.Stage)
	}
	if errors.Is(err, mahjong.ErrBudgetExhausted) {
		s.metrics.budgetExhausted.Add(1)
	}
}

// degradeEnabled resolves a job's degrade setting against the server
// default.
func (s *Server) degradeEnabled(spec JobSpec) bool {
	if spec.Degrade != nil {
		return *spec.Degrade
	}
	return !s.cfg.NoDegrade
}

// degradable reports whether err is the kind of failure graceful
// degradation answers: an internal (panic-recovered) error or resource
// budget exhaustion. Cancellation and deadline errors are not
// degradable — the job is out of time either way.
func degradable(err error) bool {
	var ie *mahjong.InternalError
	if errors.As(err, &ie) {
		return true
	}
	return errors.Is(err, mahjong.ErrBudgetExhausted)
}

// budgetFor resolves a job's resource budget: the server default with
// per-job overrides.
func (s *Server) budgetFor(spec JobSpec) mahjong.ResourceBudget {
	b := s.cfg.Budget
	if spec.BudgetFacts > 0 {
		b.Facts = spec.BudgetFacts
	}
	if spec.BudgetWords > 0 {
		b.BitsetWords = spec.BudgetWords
	}
	if spec.BudgetPairs > 0 {
		b.MergePairs = spec.BudgetPairs
	}
	return b
}

// execute runs the job's pipeline under ctx and stores results on j.
// Writes to j.prog/abs/rep happen-before the terminal state transition
// in runJob, which is what status handlers synchronize on.
//
// Graceful degradation: when building the Mahjong abstraction — or the
// main analysis on top of it — fails with a degradable error (an
// internal panic-recovered error or resource-budget exhaustion) and
// the job allows it, the analysis re-runs on the plain allocation-site
// abstraction. That abstraction is the paper's sound baseline (Mahjong
// merges its objects; alloc-site never merges), so the degraded result
// is sound, merely less compact; the job is marked degraded with the
// original error as cause. Degraded runs build no Mahjong abstraction,
// so nothing degraded can ever enter the cache.
func (s *Server) execute(ctx context.Context, j *job) error {
	prog := j.prog
	if prog == nil {
		p, err := mahjong.GenerateBenchmark(j.spec.Benchmark)
		if err != nil {
			return err
		}
		prog = p
		j.mu.Lock()
		j.prog = p
		j.mu.Unlock()
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	degrade := s.degradeEnabled(j.spec)
	resources := s.budgetFor(j.spec)
	cfg := mahjong.Config{
		Analysis:   j.spec.Analysis,
		Heap:       mahjong.HeapKind(defaulted(j.spec.Heap, string(mahjong.HeapMahjong))),
		BudgetWork: j.spec.BudgetWork,
		Resources:  resources,
	}
	if j.autoDegraded && cfg.Heap == mahjong.HeapMahjong {
		// The admission controller already downgraded this batch job
		// (degradation ladder): run straight on the alloc-site baseline,
		// skipping the Mahjong abstraction build entirely.
		cfg.Heap = mahjong.HeapAllocSite
	}
	rep, err := s.runAttempt(ctx, j, prog, cfg, resources)
	if err != nil && degrade && degradable(err) && cfg.Heap == mahjong.HeapMahjong {
		// The Mahjong pipeline failed somewhere — abstraction build or
		// the main analysis on top of it: one more attempt on the
		// allocation-site baseline, under its own tracer so the failed
		// attempt's span tree survives untouched next to the re-run's.
		s.noteFailure(err)
		s.markDegraded(j, err)
		cfg.Heap = mahjong.HeapAllocSite
		cfg.Abstraction = nil
		rep, err = s.runAttempt(ctx, j, prog, cfg, resources)
	}
	if err != nil {
		return err
	}
	s.metrics.solverWork.Add(rep.Work)
	s.metrics.analysisNS.Add(rep.Time.Nanoseconds())
	s.metrics.solverPropagated.Add(rep.Solver.PropagatedBits)
	s.metrics.solverMaskHits.Add(rep.Solver.FilterMaskHits)
	j.mu.Lock()
	j.rep = rep
	j.mu.Unlock()
	return nil
}

// runAttempt executes one full pipeline attempt — abstraction (when
// cfg.Heap is mahjong) plus the main analysis — under its own tracer
// rooted at a server.job span. The attempt's span tree is snapshotted
// onto the job and fed to the stage-duration histograms no matter how
// the attempt ends, so a degraded re-run appends a second trace instead
// of corrupting the first.
func (s *Server) runAttempt(ctx context.Context, j *job, prog *mahjong.Program, cfg mahjong.Config, resources mahjong.ResourceBudget) (rep *mahjong.Report, err error) {
	tr := trace.New()
	root := tr.Root().Start(faultinject.StageJob)
	defer func() {
		root.Close(err)
		snap := tr.Snapshot()
		j.addTrace(snap)
		s.metrics.observeTrace(snap)
	}()
	cfg.Trace = root.Ctx()
	if cfg.Heap == mahjong.HeapMahjong {
		abs, hit, aerr := s.abstractionFor(ctx, j, prog, resources, root.Ctx())
		if aerr != nil {
			return nil, aerr
		}
		cfg.Abstraction = abs
		j.mu.Lock()
		j.abs = abs
		j.cacheHit = hit
		j.mu.Unlock()
	}
	return mahjong.AnalyzeContext(ctx, prog, cfg)
}

// markDegraded records that j fell back to the allocation-site
// abstraction because of cause.
func (s *Server) markDegraded(j *job, cause error) {
	j.mu.Lock()
	j.degraded = true
	j.degradedCause = cause.Error()
	j.abs = nil // a partial abstraction must not serve query endpoints
	j.mu.Unlock()
}

// abstractionFor returns prog's Mahjong abstraction, via the cache when
// an identical program (by canonical-IR content hash) was built before.
// Cache hits rebind the persisted equivalence classes to prog's own
// allocation sites through the core persistence layer.
//
// A cached entry whose bytes fail to rebind (corruption) is quarantined
// — evicted so it cannot poison later jobs — and the abstraction is
// rebuilt from scratch once. Failed builds are never cached (getOrFill
// drops the entry), so degraded or poisoned results cannot enter the
// cache.
//
// Every actually-built abstraction also deposits its DeltaState in the
// retention store under the job's ID, making the job a valid
// base_job_id for later submissions; when j itself names a base with a
// retained state, the build runs incrementally against it. An
// incremental build returns the same abstraction a cold build would
// (BuildAbstractionDelta's equivalence contract), so caching its bytes
// is as safe as caching a cold build's — and fallbacks (missing base,
// shape change, injected delta faults) only cost the warm start, with
// the reason recorded on the job.
func (s *Server) abstractionFor(ctx context.Context, j *job, prog *mahjong.Program, resources mahjong.ResourceBudget, tc trace.Ctx) (*mahjong.Abstraction, bool, error) {
	key := cacheKey(mahjong.PrintProgram(prog))
	for attempt := 0; ; attempt++ {
		var built *mahjong.Abstraction
		data, hit, err := s.cache.getOrFill(ctx, key, func() ([]byte, error) {
			var base *mahjong.DeltaState
			baseReason := ""
			if j.spec.BaseJobID != "" {
				if base = s.deltas.get(j.spec.BaseJobID); base == nil {
					baseReason = fmt.Sprintf("no retained state for base job %q", j.spec.BaseJobID)
				}
			}
			abs, next, out, err := mahjong.BuildAbstractionDelta(ctx, prog, mahjong.AbstractionOptions{
				Resources: resources,
				Trace:     tc,
			}, base)
			if err != nil {
				return nil, err
			}
			s.deltas.put(j.id, next)
			if j.spec.BaseJobID != "" {
				if baseReason == "" {
					baseReason = out.Fallback
				}
				j.mu.Lock()
				j.deltaUsed = out.Used
				j.deltaReason = baseReason
				j.mu.Unlock()
				if out.Used {
					s.metrics.deltaWarm.Add(1)
				} else {
					s.metrics.deltaFallbacks.Add(1)
				}
			}
			s.metrics.preNS.Add(abs.PreTime.Nanoseconds())
			s.metrics.fpgNS.Add(abs.FPGTime.Nanoseconds())
			s.metrics.mergeNS.Add(abs.ModelTime.Nanoseconds())
			var buf bytes.Buffer
			if err := abs.Save(&buf); err != nil {
				return nil, err
			}
			built = abs
			return buf.Bytes(), nil
		})
		if err != nil {
			return nil, false, err
		}
		if !hit && built != nil {
			s.metrics.cacheMisses.Add(1)
			return built, false, nil
		}
		s.metrics.cacheHits.Add(1)
		if j.spec.BaseJobID != "" {
			// Served from the abstraction cache: nothing was solved, so
			// the delta machinery never ran (and this job retains no state
			// of its own).
			j.mu.Lock()
			j.deltaUsed = false
			j.deltaReason = "abstraction served from cache"
			j.mu.Unlock()
			s.metrics.deltaFallbacks.Add(1)
		}
		abs, err := loadCachedAbstraction(tc, data, prog)
		if err == nil {
			return abs, true, nil
		}
		s.metrics.noteStageFailure(faultinject.StageCacheLoad)
		if s.cache.quarantine(key) {
			s.metrics.cacheQuarantined.Add(1)
		}
		if attempt > 0 {
			return nil, false, fmt.Errorf("rebinding cached abstraction: %w", err)
		}
		// First corruption for this job: the poisoned entry is gone;
		// loop to rebuild from scratch.
	}
}

// loadCachedAbstraction rebinds cached abstraction bytes to prog under
// their own trace span. The fault-injection seam corrupts the bytes
// here, the same place bit rot or a buggy serializer would; the
// deferred CloseAborted keeps the span from dangling if the load panics
// instead of returning an error.
func loadCachedAbstraction(tc trace.Ctx, data []byte, prog *mahjong.Program) (*mahjong.Abstraction, error) {
	sp := tc.Start(faultinject.StageCacheLoad)
	defer sp.CloseAborted()
	data = faultinject.Mutate(faultinject.StageCacheLoad, data)
	abs, err := mahjong.LoadAbstraction(bytes.NewReader(data), prog)
	sp.Close(err)
	return abs, err
}

// ---- status and control ----

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot(s.schedq.Depths(), s.schedq.InFlight(), s.cache.len(), s.deltas.len())
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeProm(w, snap)
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	jobs := s.store.list()
	views := make([]view, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	v := j.view()
	if v.Retriable {
		// The job failed only because the server shut down before it
		// started; tell the client to resubmit elsewhere/later.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, v)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.cause = CauseCancelled
		j.errMsg = "cancelled before execution"
		j.finished = time.Now()
		s.metrics.jobsCancelled.Add(1)
		qit := j.qitem
		j.mu.Unlock()
		// Release the queue slot NOW: a cancelled job must not occupy
		// capacity (or be dequeued and discarded later) while live work
		// is being rejected. Remove returning false means a worker beat
		// us to the pop; runJob sees the terminal state and returns.
		s.schedq.Remove(qit)
		s.finishQueueWait(j, context.Canceled)
		writeJSON(w, http.StatusOK, j.view())
		return
	case StateRunning:
		j.cancel() // the worker records the terminal state
	default:
		state := j.state
		j.mu.Unlock()
		httpError(w, http.StatusConflict, "job %s already %s", j.id, state)
		return
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, j.view())
}

// ---- queries against completed jobs ----

// completedJob resolves {id} to a done job or writes the error (404 for
// unknown IDs, 409 for jobs not yet — or never — completing).
func (s *Server) completedJob(w http.ResponseWriter, r *http.Request) *job {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return nil
	}
	if _, _, err := j.ready(); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return nil
	}
	return j
}

func (s *Server) handlePointsTo(w http.ResponseWriter, r *http.Request) {
	j := s.completedJob(w, r)
	if j == nil {
		return
	}
	rep, prog, _ := j.ready()
	spec := r.URL.Query().Get("var")
	if spec == "" {
		httpError(w, http.StatusBadRequest, "missing ?var= (format: Class.method/arity#name)")
		return
	}
	v := findVar(prog, spec)
	if v == nil {
		httpError(w, http.StatusNotFound, "no variable %q in the analyzed program", spec)
		return
	}
	type objJSON struct {
		Label  string `json:"label"`
		Type   string `json:"type"`
		Merged bool   `json:"merged"`
	}
	res := rep.Result()
	objs := res.VarObjs(v)
	out := struct {
		Var     string    `json:"var"`
		Objects []objJSON `json:"objects"`
		Types   []string  `json:"types"`
	}{Var: v.String(), Objects: []objJSON{}}
	for _, o := range objs {
		out.Objects = append(out.Objects, objJSON{Label: o.String(), Type: o.Type.Name, Merged: o.Merged})
	}
	for _, t := range res.VarTypes(v) {
		out.Types = append(out.Types, t.Name)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCallGraph(w http.ResponseWriter, r *http.Request) {
	j := s.completedJob(w, r)
	if j == nil {
		return
	}
	rep, _, _ := j.ready()
	switch format := r.URL.Query().Get("format"); format {
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
		if err := export.CallGraphDOT(w, rep.Result()); err != nil {
			httpError(w, http.StatusInternalServerError, "exporting call graph: %v", err)
		}
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		if err := export.CallGraphJSON(w, rep.Result()); err != nil {
			httpError(w, http.StatusInternalServerError, "exporting call graph: %v", err)
		}
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want json or dot)", format)
	}
}

func (s *Server) handleCasts(w http.ResponseWriter, r *http.Request) {
	j := s.completedJob(w, r)
	if j == nil {
		return
	}
	rep, _, _ := j.ready()
	type castJSON struct {
		Method string `json:"method"`
		Stmt   string `json:"stmt"`
		Target string `json:"target"`
	}
	out := struct {
		MayFailCasts []castJSON `json:"may_fail_casts"`
	}{MayFailCasts: []castJSON{}}
	for _, c := range clients.MayFailCasts(rep.Result()) {
		out.MayFailCasts = append(out.MayFailCasts, castJSON{
			Method: c.LHS.Method.String(),
			Stmt:   c.String(),
			Target: c.Type.Name,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePolyCalls(w http.ResponseWriter, r *http.Request) {
	j := s.completedJob(w, r)
	if j == nil {
		return
	}
	rep, _, _ := j.ready()
	type siteJSON struct {
		Site    string   `json:"site"`
		Stmt    string   `json:"stmt"`
		Targets []string `json:"targets"`
	}
	res := rep.Result()
	out := struct {
		PolyCallSites []siteJSON `json:"poly_call_sites"`
	}{PolyCallSites: []siteJSON{}}
	for _, inv := range clients.PolyCallSites(res) {
		sj := siteJSON{Site: inv.Label(), Stmt: inv.String()}
		for _, m := range res.CallTargets(inv) {
			sj.Targets = append(sj.Targets, m.String())
		}
		out.PolyCallSites = append(out.PolyCallSites, sj)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAbstraction(w http.ResponseWriter, r *http.Request) {
	j := s.completedJob(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	abs := j.abs
	j.mu.Unlock()
	if abs == nil {
		httpError(w, http.StatusNotFound, "job %s did not build a Mahjong abstraction (heap=%s)",
			j.id, defaulted(j.spec.Heap, string(mahjong.HeapMahjong)))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := abs.Save(w); err != nil {
		httpError(w, http.StatusInternalServerError, "persisting abstraction: %v", err)
	}
}

// handleTrace serves a job's span trees, one per pipeline attempt (a
// degraded job has two: the failed Mahjong attempt and the alloc-site
// re-run). Unlike the result endpoints it also answers for failed and
// cancelled jobs — the trace of a failed attempt is exactly what the
// caller wants to look at.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	attempts := j.traceSnapshots()
	queueTrace := j.queueTraceSnapshot()
	if len(attempts) == 0 && queueTrace == nil {
		httpError(w, http.StatusConflict, "job %s has no trace yet", j.id)
		return
	}
	// The queue span rides in its own field: attempt traces keep their
	// root-is-server.job shape, and a job shed or cancelled while queued
	// still has a trace to look at.
	out := struct {
		Job      string         `json:"job"`
		Queue    *trace.Trace   `json:"queue,omitempty"`
		Attempts []*trace.Trace `json:"attempts"`
	}{Job: j.id, Queue: queueTrace, Attempts: attempts}
	writeJSON(w, http.StatusOK, out)
}

// findVar resolves "Class.method/arity#name" against the program.
func findVar(prog *mahjong.Program, spec string) *lang.Var {
	for _, m := range prog.Methods {
		for _, v := range m.Locals {
			if v.String() == spec {
				return v
			}
		}
	}
	return nil
}

// ---- plumbing ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best effort; client may have gone away
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// httpReject writes a backpressure rejection (429/503): a Retry-After
// header derived from retryAfter (rounded up, 1s floor) and an error
// body carrying "retriable": true, so clients can distinguish "back off
// and resubmit" from "this job is broken".
func httpReject(w http.ResponseWriter, code int, retryAfter time.Duration, format string, args ...any) {
	secs := int64(retryAfter / time.Second)
	if retryAfter%time.Second != 0 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeJSON(w, code, map[string]any{
		"error":     fmt.Sprintf(format, args...),
		"retriable": true,
	})
}
