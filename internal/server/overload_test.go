package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mahjong"
	"mahjong/internal/faultinject"
	"mahjong/internal/sched"
)

// parkWorkers installs a StageJob hook that blocks every job until the
// returned release function is called (10s backstop so a failing test
// cannot wedge the suite).
func parkWorkers(t *testing.T) func() {
	t.Helper()
	release := make(chan struct{})
	t.Cleanup(faultinject.Clear)
	faultinject.Set(faultinject.OnStage(faultinject.StageJob, func(string) error {
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
		return nil
	}))
	var once sync.Once
	return func() { once.Do(func() { close(release) }) }
}

// waitRunning polls until n jobs are running.
func waitRunning(t *testing.T, srv *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.metrics.jobsRunning.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d running jobs", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Scheduling classes resolve from the spec: explicit class wins,
// base_job_id defaults to incremental, everything else to interactive;
// garbage is a 400.
func TestSchedulingClassResolution(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	base := waitJob(t, ts, submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"}))
	if base.Class != "interactive" {
		t.Fatalf("default class = %q, want interactive", base.Class)
	}
	batch := waitJob(t, ts, submit(t, ts, JobSpec{IR: testIR, Analysis: "ci", Class: "batch"}))
	if batch.Class != "batch" {
		t.Fatalf("explicit class = %q, want batch", batch.Class)
	}
	incr := waitJob(t, ts, submit(t, ts, JobSpec{IR: testIR, Analysis: "ci", BaseJobID: base.ID}))
	if incr.Class != "incremental" {
		t.Fatalf("base_job_id class = %q, want incremental", incr.Class)
	}
	resp, data := postJSON(t, ts.URL+"/jobs", JobSpec{IR: testIR, Class: "urgent"})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "unknown class") {
		t.Fatalf("bogus class: status %d body %s, want 400 naming the class", resp.StatusCode, data)
	}
}

// Admission control: when the estimated queue wait already exceeds the
// job's deadline the submission bounces with 429 + Retry-After and a
// retriable body, before any queue state is created.
func TestAdmissionRejectsOverEstimatedWait(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	release := parkWorkers(t)
	defer release()

	// Teach the scheduler ~1s interactive service times.
	for i := 0; i < 3; i++ {
		srv.schedq.Done(sched.Interactive, time.Second)
	}
	blocker := submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"})
	waitRunning(t, srv, 1)
	submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"}) // pending depth 1 → est ≈ 1s

	resp, data := postJSON(t, ts.URL+"/jobs", JobSpec{IR: testIR, Analysis: "ci", TimeoutMS: 100})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-wait submission: status %d body %s, want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After, body %s", data)
	}
	var e struct {
		Error     string `json:"error"`
		Retriable bool   `json:"retriable"`
	}
	if err := json.Unmarshal(data, &e); err != nil || !e.Retriable || !strings.Contains(e.Error, "estimated queue wait") {
		t.Fatalf("429 body %s, want retriable estimated-wait error", data)
	}
	snap := metricsSnap(t, ts)
	if snap.JobsRejectedWait != 1 || snap.JobsRejected != 1 {
		t.Fatalf("rejected wait/total = %d/%d, want 1/1", snap.JobsRejectedWait, snap.JobsRejected)
	}

	// A generous deadline passes the same estimate.
	id := submit(t, ts, JobSpec{IR: testIR, Analysis: "ci", TimeoutMS: 60_000})
	release()
	faultinject.Clear()
	for _, jid := range []string{blocker, id} {
		if v := waitJob(t, ts, jid); v.State != StateDone {
			t.Fatalf("job %s: state %s (error %q), want done", jid, v.State, v.Error)
		}
	}
}

// With admission disabled the same overload estimate admits the job.
func TestAdmissionDisabled(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, NoAdmission: true})
	release := parkWorkers(t)
	defer release()
	for i := 0; i < 3; i++ {
		srv.schedq.Done(sched.Interactive, time.Hour)
	}
	submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"})
	waitRunning(t, srv, 1)
	submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"})
	// Estimated wait is now ~1h; a 100ms-deadline job is still admitted
	// (and will be shed later rather than rejected up front).
	resp, data := postJSON(t, ts.URL+"/jobs", JobSpec{IR: testIR, Analysis: "ci", TimeoutMS: 100})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("no-admission submission: status %d body %s, want 202", resp.StatusCode, data)
	}
}

// A job whose deadline expires while queued is shed: terminal
// immediately, never run, and counted in jobs_shed_total.
func TestQueuedJobShed(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	release := parkWorkers(t)
	defer release()

	blocker := submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"})
	waitRunning(t, srv, 1)
	doomed := submit(t, ts, JobSpec{IR: testIR, Analysis: "ci", TimeoutMS: 50})

	v := waitJob(t, ts, doomed)
	if v.State != StateCancelled || !strings.Contains(v.Error, "shed") {
		t.Fatalf("shed job: state %s error %q, want cancelled with a shed message", v.State, v.Error)
	}
	if v.Started != "" {
		t.Fatalf("shed job has a start time %q; it must never have run", v.Started)
	}
	snap := metricsSnap(t, ts)
	if snap.JobsShed != 1 || snap.JobsCancelled != 1 {
		t.Fatalf("shed/cancelled = %d/%d, want 1/1", snap.JobsShed, snap.JobsCancelled)
	}
	// The shed job still has a queue trace to look at, and no attempts.
	var tr struct {
		Queue    *json.RawMessage  `json:"queue"`
		Attempts []json.RawMessage `json:"attempts"`
	}
	if resp := getJSON(t, ts.URL+"/jobs/"+doomed+"/trace", &tr); resp.StatusCode != http.StatusOK || tr.Queue == nil {
		t.Fatalf("shed job trace: status %d queue %v, want 200 with a queue span", resp.StatusCode, tr.Queue)
	}
	if len(tr.Attempts) != 0 {
		t.Fatalf("shed job has %d attempts, want 0", len(tr.Attempts))
	}

	release()
	faultinject.Clear()
	if bv := waitJob(t, ts, blocker); bv.State != StateDone {
		t.Fatalf("blocker: state %s (error %q), want done", bv.State, bv.Error)
	}
}

// Cancelling a queued job releases its queue slot immediately — a new
// submission fits without waiting for a worker to dequeue the corpse.
func TestQueuedCancelReleasesSlot(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := parkWorkers(t)
	defer release()

	blocker := submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"})
	waitRunning(t, srv, 1)
	queued := submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"}) // fills the 1-slot queue

	// Queue full: the next submission bounces with 429.
	resp, data := postJSON(t, ts.URL+"/jobs", JobSpec{IR: testIR, Analysis: "ci"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submission: status %d body %s, want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After: %s", data)
	}

	resp, data = postJSON(t, ts.URL+"/jobs/"+queued+"/cancel", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: status %d body %s", resp.StatusCode, data)
	}
	var cv view
	if err := json.Unmarshal(data, &cv); err != nil || cv.State != StateCancelled {
		t.Fatalf("cancel queued: view %s (err %v), want cancelled immediately", data, err)
	}

	// The slot freed without any dequeue: the very next submission fits.
	replacement := submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"})
	release()
	faultinject.Clear()
	for _, id := range []string{blocker, replacement} {
		if v := waitJob(t, ts, id); v.State != StateDone {
			t.Fatalf("job %s: state %s (error %q), want done", id, v.State, v.Error)
		}
	}
	snap := metricsSnap(t, ts)
	if snap.JobsCancelled != 1 || snap.JobsCompleted != 2 {
		t.Fatalf("cancelled/completed = %d/%d, want 1/2", snap.JobsCancelled, snap.JobsCompleted)
	}
}

// Degradation ladder: above the autodegrade-wait threshold a new batch
// job is downgraded to the alloc-site abstraction at admission — it
// still completes (sound, cheaper), marked degraded with the threshold
// as cause.
func TestAutoDegradeBatchUnderPressure(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, AutodegradeWait: 10 * time.Millisecond})
	release := parkWorkers(t)
	defer release()

	for i := 0; i < 3; i++ {
		srv.schedq.Done(sched.Interactive, time.Second)
	}
	blocker := submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"})
	waitRunning(t, srv, 1)
	submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"}) // pending depth 1 → est ≈ 1s > 10ms

	// An interactive job above the threshold is NOT degraded (the ladder
	// only downgrades batch work) …
	resp, data := postJSON(t, ts.URL+"/jobs", JobSpec{IR: testIR, Analysis: "ci"})
	var iv view
	if err := json.Unmarshal(data, &iv); err != nil || resp.StatusCode != http.StatusAccepted || iv.Degraded {
		t.Fatalf("interactive above threshold: status %d view %s, want undegraded 202", resp.StatusCode, data)
	}
	// … a batch job is, visibly in the 202 response already.
	resp, data = postJSON(t, ts.URL+"/jobs", JobSpec{IR: testIR, Analysis: "2obj", Class: "batch"})
	var bv view
	if err := json.Unmarshal(data, &bv); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch above threshold: status %d body %s, want 202", resp.StatusCode, data)
	}
	if !bv.Degraded || !strings.Contains(bv.DegradedCause, "auto-degraded") {
		t.Fatalf("batch job not auto-degraded at admission: %s", data)
	}

	release()
	faultinject.Clear()
	final := waitJob(t, ts, bv.ID)
	if final.State != StateDone || !final.Degraded {
		t.Fatalf("auto-degraded batch job: state %s degraded %v (error %q), want degraded done",
			final.State, final.Degraded, final.Error)
	}
	if final.Result == nil || final.Result.Reachable == 0 {
		t.Fatalf("auto-degraded job produced no result: %+v", final.Result)
	}
	// Alloc-site run: no Mahjong abstraction was built or cached.
	if resp := getJSON(t, ts.URL+"/jobs/"+bv.ID+"/abstraction", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("auto-degraded job serves an abstraction: status %d, want 404", resp.StatusCode)
	}
	snap := metricsSnap(t, ts)
	if snap.JobsAutodegraded != 1 {
		t.Fatalf("jobs_autodegraded = %d, want 1", snap.JobsAutodegraded)
	}
	if v := waitJob(t, ts, blocker); v.State != StateDone {
		t.Fatalf("blocker: state %s, want done", v.State)
	}
}

// Saturation: flood a parked server far past queue capacity with mixed
// classes. Every submission answers 202 or 429 (never a hang, never a
// 5xx), counters stay monotone while the flood runs, and after release
// every accepted job reaches exactly one terminal state.
func TestSaturationMixedClasses(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:     2,
		QueueDepth:  8,
		ClassQuotas: [sched.NumClasses]int{sched.Interactive: 1},
	})
	release := parkWorkers(t)
	defer release()

	classes := []string{"interactive", "batch", "", "incremental"}
	const flood = 48
	type outcome struct {
		status int
		id     string
	}
	results := make(chan outcome, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, data := postJSON(t, ts.URL+"/jobs", JobSpec{IR: testIR, Analysis: "ci", Class: classes[i%len(classes)]})
			var v view
			json.Unmarshal(data, &v) //nolint:errcheck // rejections carry an error body, not a view
			if resp.StatusCode == http.StatusTooManyRequests {
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("429 without Retry-After: %s", data)
				}
				var e struct {
					Retriable bool `json:"retriable"`
				}
				if json.Unmarshal(data, &e) != nil || !e.Retriable {
					t.Errorf("429 body not retriable: %s", data)
				}
			}
			results <- outcome{resp.StatusCode, v.ID}
		}(i)
	}

	// Counters must be monotone while the flood is in progress, and the
	// running gauge bounded by the pool size.
	prev := metricsSnap(t, ts)
	for i := 0; i < 5; i++ {
		time.Sleep(2 * time.Millisecond)
		cur := metricsSnap(t, ts)
		if cur.JobsSubmitted < prev.JobsSubmitted || cur.JobsRejected < prev.JobsRejected ||
			cur.JobsCompleted < prev.JobsCompleted || cur.JobsFailed < prev.JobsFailed ||
			cur.JobsCancelled < prev.JobsCancelled {
			t.Fatalf("metrics went backwards: %+v then %+v", prev, cur)
		}
		if cur.JobsRunning > 2 {
			t.Fatalf("jobs_running = %d above the worker-pool size", cur.JobsRunning)
		}
		prev = cur
	}
	wg.Wait()
	close(results)

	var accepted []string
	var rejected int
	for r := range results {
		switch r.status {
		case http.StatusAccepted:
			accepted = append(accepted, r.id)
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("saturation submission answered %d, want 202 or 429", r.status)
		}
	}
	if rejected == 0 {
		t.Fatal("flood past capacity produced no 429s")
	}
	if len(accepted)+rejected != flood {
		t.Fatalf("accounted %d+%d of %d submissions", len(accepted), rejected, flood)
	}

	release()
	faultinject.Clear()
	for _, id := range accepted {
		if v := waitJob(t, ts, id); v.State != StateDone {
			t.Fatalf("accepted job %s: state %s (error %q), want done", id, v.State, v.Error)
		}
	}
	snap := metricsSnap(t, ts)
	if snap.JobsSubmitted != int64(len(accepted)) || snap.JobsRejected != int64(rejected) {
		t.Fatalf("submitted/rejected = %d/%d, want %d/%d",
			snap.JobsSubmitted, snap.JobsRejected, len(accepted), rejected)
	}
	// Exactly-once accounting: terminal counters sum to the accepted
	// total, nothing queued or running remains.
	if got := snap.JobsCompleted + snap.JobsFailed + snap.JobsCancelled; got != int64(len(accepted)) {
		t.Fatalf("terminal sum %d != accepted %d (double- or never-counted job)", got, len(accepted))
	}
	if snap.JobsQueued != 0 || snap.JobsRunning != 0 {
		t.Fatalf("queued/running = %d/%d after drain, want 0/0", snap.JobsQueued, snap.JobsRunning)
	}
	for class, depth := range snap.QueueDepthByClass {
		if depth != 0 {
			t.Fatalf("class %s still has queue depth %d after drain", class, depth)
		}
	}
}

// Shutdown under saturation: with the worker parked, the queue full and
// submissions bouncing, Close must fail every queued job exactly once
// as retriable, cancel the running job, and return.
func TestShutdownUnderSaturation(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 4, ShutdownGrace: 30 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	t.Cleanup(srv.Close)

	// Park the single worker inside the solve stage so its job observes
	// the shutdown cancellation.
	release := make(chan struct{})
	t.Cleanup(faultinject.Clear)
	faultinject.Set(faultinject.OnStage(faultinject.StageSolve, func(string) error {
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
		return nil
	}))

	// 1 running + 4 queued; everything beyond bounces with 429.
	blocker := submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := pollJob(t, ts, blocker); v.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	accepted := []string{blocker}
	var rejected int
	for i := 0; i < 7; i++ {
		resp, data := postJSON(t, ts.URL+"/jobs", JobSpec{IR: testIR, Analysis: "ci"})
		switch resp.StatusCode {
		case http.StatusAccepted:
			var v view
			if err := json.Unmarshal(data, &v); err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, v.ID)
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("saturating submission answered %d body %s", resp.StatusCode, data)
		}
	}
	if len(accepted) != 5 || rejected != 3 {
		t.Fatalf("accepted/rejected = %d/%d, want 5/3", len(accepted), rejected)
	}

	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-srv.quit:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown never completed its drain")
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return under saturation")
	}

	// Every accepted job is terminal exactly once: the running one
	// cancelled, the four queued ones failed retriable.
	terminal := map[JobState]int{}
	for _, id := range accepted {
		v, _ := pollJob(t, ts, id)
		switch v.State {
		case StateFailed:
			if !v.Retriable {
				t.Fatalf("queued job %s failed non-retriable: %q", id, v.Error)
			}
		case StateCancelled:
		default:
			t.Fatalf("job %s left in state %s after shutdown", id, v.State)
		}
		terminal[v.State]++
	}
	if terminal[StateFailed] != 4 || terminal[StateCancelled] != 1 {
		t.Fatalf("terminal states %v, want 4 retriable failures + 1 cancellation", terminal)
	}
	snap := srv.metrics.snapshot(srv.schedq.Depths(), srv.schedq.InFlight(), 0, 0)
	if got := snap.JobsCompleted + snap.JobsFailed + snap.JobsCancelled; got != int64(len(accepted)) {
		t.Fatalf("terminal sum %d != accepted %d", got, len(accepted))
	}
}

// Fault matrix extension: faults injected at the admission and queue
// hand-off seams must reject or fail cleanly, never wedge intake or the
// pool.
func TestFaultMatrixAdmission(t *testing.T) {
	t.Run("admit panic rejects the submission", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Workers: 2})
		t.Cleanup(faultinject.Clear)
		faultinject.Set(faultinject.OnStage(faultinject.StageAdmit,
			faultinject.Once(faultinject.PanicWith("injected admission bug"))))
		resp, data := postJSON(t, ts.URL+"/jobs", JobSpec{IR: matrixIR})
		faultinject.Clear()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d body %s, want 503", resp.StatusCode, data)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("admission-fault 503 lacks Retry-After: %s", data)
		}
		var e struct {
			Error     string `json:"error"`
			Retriable bool   `json:"retriable"`
		}
		if err := json.Unmarshal(data, &e); err != nil || !e.Retriable ||
			!strings.Contains(e.Error, "server.admit") || !strings.Contains(e.Error, "injected admission bug") {
			t.Fatalf("503 body %s, want retriable error naming server.admit and the panic", data)
		}
		snap := metricsSnap(t, ts)
		if snap.StageFailures["server.admit"] != 1 || snap.PanicsRecovered != 1 || snap.JobsRejected != 1 || snap.JobsSubmitted != 0 {
			t.Fatalf("admit/panics/rejected/submitted = %d/%d/%d/%d, want 1/1/1/0",
				snap.StageFailures["server.admit"], snap.PanicsRecovered, snap.JobsRejected, snap.JobsSubmitted)
		}
		assertHealthy(t, ts)
	})

	t.Run("admit budget error rejects the submission", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Workers: 2})
		t.Cleanup(faultinject.Clear)
		faultinject.Set(faultinject.OnStage(faultinject.StageAdmit,
			faultinject.Once(faultinject.Fail(mahjong.ErrBudgetExhausted))))
		resp, data := postJSON(t, ts.URL+"/jobs", JobSpec{IR: matrixIR})
		faultinject.Clear()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("status %d body %s, want 503", resp.StatusCode, data)
		}
		snap := metricsSnap(t, ts)
		if snap.BudgetExhausted != 1 || snap.JobsRejected != 1 {
			t.Fatalf("budget/rejected = %d/%d, want 1/1", snap.BudgetExhausted, snap.JobsRejected)
		}
		assertHealthy(t, ts)
	})

	t.Run("queue hand-off panic fails one job", func(t *testing.T) {
		v, snap, ts := runCase(t,
			faultinject.OnStage(faultinject.StageQueue, faultinject.Once(faultinject.PanicWith("injected dequeue bug"))),
			JobSpec{IR: matrixIR})
		if v.State != StateFailed || !strings.Contains(v.Error, "internal error in server.queue") {
			t.Fatalf("state %s error %q, want typed server.queue failure", v.State, v.Error)
		}
		if snap.StageFailures["server.queue"] != 1 {
			t.Fatalf("stage failures %v, want server.queue:1", snap.StageFailures)
		}
		assertHealthy(t, ts)
	})

	t.Run("queue hand-off budget error fails one job", func(t *testing.T) {
		v, snap, ts := runCase(t,
			faultinject.OnStage(faultinject.StageQueue, faultinject.Once(faultinject.Fail(mahjong.ErrBudgetExhausted))),
			JobSpec{IR: matrixIR})
		if v.State != StateFailed || !strings.Contains(v.Error, "queue hand-off") {
			t.Fatalf("state %s error %q, want a queue hand-off failure", v.State, v.Error)
		}
		if snap.BudgetExhausted != 1 {
			t.Fatalf("budget_exhausted = %d, want 1", snap.BudgetExhausted)
		}
		assertHealthy(t, ts)
	})
}

// The per-class queue gauges and the queue-wait histogram appear in the
// Prometheus exposition with deterministic series.
func TestOverloadPromSeries(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	waitJob(t, ts, submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"}))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		`mahjongd_queue_depth{class="interactive"}`,
		`mahjongd_queue_depth{class="incremental"}`,
		`mahjongd_queue_depth{class="batch"}`,
		`mahjongd_jobs_in_flight{class="interactive"}`,
		"mahjongd_queue_wait_seconds_bucket",
		"mahjongd_queue_wait_seconds_count",
		"mahjongd_jobs_rejected_full_total",
		"mahjongd_jobs_rejected_wait_total",
		"mahjongd_jobs_shed_total",
		"mahjongd_jobs_autodegraded_total",
		fmt.Sprintf("mahjongd_stage_duration_seconds_count{stage=%q}", faultinject.StageQueue),
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
	// The completed job waited in queue once: the histogram counted it.
	if !strings.Contains(body, "mahjongd_queue_wait_seconds_count 1") {
		t.Fatalf("queue-wait histogram did not observe the job's wait:\n%s", body)
	}
}

// TestTerminalCauses drives every way a job can end without a result
// and checks the cause the job view reports for it.
func TestTerminalCauses(t *testing.T) {
	expect := func(t *testing.T, v view, state JobState, cause Cause) {
		t.Helper()
		if v.State != state || v.Cause != cause {
			t.Fatalf("job %s: state %s cause %q (error %q), want %s / %q", v.ID, v.State, v.Cause, v.Error, state, cause)
		}
	}

	t.Run("shed", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
		release := parkWorkers(t)
		defer release()
		submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"})
		waitRunning(t, srv, 1)
		expect(t, waitJob(t, ts, submit(t, ts, JobSpec{IR: testIR, Analysis: "ci", TimeoutMS: 50})), StateCancelled, CauseShed)
	})

	t.Run("deadline", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Workers: 1})
		// The solve seam stalls past the deadline; the solver then sees
		// the expired job context before it starts.
		t.Cleanup(faultinject.Clear)
		faultinject.Set(faultinject.OnStage(faultinject.StageSolve, func(string) error {
			time.Sleep(300 * time.Millisecond)
			return nil
		}))
		expect(t, waitJob(t, ts, submit(t, ts, JobSpec{IR: testIR, Heap: "alloc-site", TimeoutMS: 100})), StateCancelled, CauseDeadline)
	})

	t.Run("cancelled and rejected", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
		release := parkWorkers(t)
		defer release()
		submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"})
		waitRunning(t, srv, 1)
		queued := submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"})
		// The queue is full: the scheduler refuses the next job, which
		// stays in the store as a terminal record.
		if resp, data := postJSON(t, ts.URL+"/jobs", JobSpec{IR: testIR, Analysis: "ci"}); resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("over-capacity submission: status %d body %s, want 429", resp.StatusCode, data)
		}
		var rejected int
		for _, j := range srv.store.list() {
			if v := j.view(); v.State == StateFailed {
				expect(t, v, StateFailed, CauseRejected)
				rejected++
			}
		}
		if rejected != 1 {
			t.Fatalf("%d rejected jobs in the store, want 1", rejected)
		}
		if resp, data := postJSON(t, ts.URL+"/jobs/"+queued+"/cancel", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel queued: status %d body %s", resp.StatusCode, data)
		}
		expect(t, waitJob(t, ts, queued), StateCancelled, CauseCancelled)
	})

	t.Run("error", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Workers: 1})
		t.Cleanup(faultinject.Clear)
		faultinject.Set(faultinject.OnStage(faultinject.StageJob, faultinject.Once(faultinject.Fail(errors.New("injected job failure")))))
		expect(t, waitJob(t, ts, submit(t, ts, JobSpec{IR: testIR})), StateFailed, CauseError)
	})

	t.Run("shutdown", func(t *testing.T) {
		srv := New(Config{Workers: 1, QueueDepth: 4, ShutdownGrace: 30 * time.Millisecond})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		t.Cleanup(srv.Close)
		release := make(chan struct{})
		t.Cleanup(faultinject.Clear)
		faultinject.Set(faultinject.OnStage(faultinject.StageSolve, func(string) error {
			select {
			case <-release:
			case <-time.After(10 * time.Second):
			}
			return nil
		}))
		running := submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"})
		waitRunning(t, srv, 1)
		queued := submit(t, ts, JobSpec{IR: testIR, Analysis: "ci"})
		closed := make(chan struct{})
		go func() { srv.Close(); close(closed) }()
		<-srv.quit // grace expired and the running job's context is cancelled
		close(release)
		<-closed
		v, _ := pollJob(t, ts, queued)
		expect(t, v, StateFailed, CauseShutdown)
		v, _ = pollJob(t, ts, running)
		expect(t, v, StateCancelled, CauseShutdown)
	})
}
