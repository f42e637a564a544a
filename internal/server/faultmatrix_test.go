package server

// The mahjongd fault-injection matrix: every pipeline stage is hit with
// an injected fault (panic, budget exhaustion, cache corruption, slow
// stage) and the daemon must degrade or fail the ONE affected job while
// the pool, the cache and subsequent jobs stay healthy. Run under the
// race detector via `make faultmatrix`.

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"mahjong"
	"mahjong/internal/faultinject"
)

// matrixIR extends testIR with two multi-site type groups (B×3, C×2),
// so the heap modeler runs real automata-equivalence checks in its merge
// loop (the "automata.equiv" seam fires there, and merge-pair budgets
// can exhaust).
const matrixIR = `
class A {
  field f: A
  method foo(): void {
    return
  }
}

class B extends A {
  method foo(): void {
    return
  }
}

class C extends A {
  method foo(): void {
    return
  }
}

class Main {
  static method main(): void {
    var x: A
    var y: A
    var z: A
    var u: A
    var v: A
    var q: A
    var w: A
    var c: C
    x = new A
    y = new B
    z = new C
    u = new B
    v = new B
    q = new C
    x.f = y
    x.f = z
    x.f = u
    x.f = v
    x.f = q
    w = x.f
    w.foo()
    c = (C) w
    return
  }
}

entry Main.main/0
`

func boolPtr(b bool) *bool { return &b }

// runCase spins up a fresh server (own cache, own metrics), installs
// the fault, runs the job, and returns the terminal view plus a metrics
// snapshot taken after the job finished.
func runCase(t *testing.T, hook faultinject.Hook, spec JobSpec) (view, MetricsSnapshot, *httptest.Server) {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 2})
	t.Cleanup(faultinject.Clear)
	faultinject.Set(hook)
	v := waitJob(t, ts, submit(t, ts, spec))
	faultinject.Clear()
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics?format=json", &snap)
	return v, snap, ts
}

// assertHealthy proves the pool survived the fault: a clean job on the
// same server completes normally.
func assertHealthy(t *testing.T, ts *httptest.Server) {
	t.Helper()
	clean := waitJob(t, ts, submit(t, ts, JobSpec{IR: matrixIR, Analysis: "2obj"}))
	if clean.State != StateDone || clean.Degraded {
		t.Fatalf("follow-up job after fault: state %s degraded %v (error %q), want clean done",
			clean.State, clean.Degraded, clean.Error)
	}
	if clean.Result == nil || clean.Result.Objects == 0 {
		t.Fatalf("follow-up job built no abstraction: %+v", clean.Result)
	}
}

func TestFaultMatrix(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	t.Run("solve panic degrades", func(t *testing.T) {
		v, snap, ts := runCase(t,
			faultinject.OnStage(faultinject.StageSolve, faultinject.Once(faultinject.PanicWith("injected solver bug"))),
			JobSpec{IR: matrixIR})
		if v.State != StateDone || !v.Degraded {
			t.Fatalf("state %s degraded %v (error %q), want degraded done", v.State, v.Degraded, v.Error)
		}
		if !strings.Contains(v.DegradedCause, "pta.solve") || !strings.Contains(v.DegradedCause, "injected solver bug") {
			t.Fatalf("degraded cause %q does not name the stage and panic", v.DegradedCause)
		}
		if snap.JobsDegraded != 1 || snap.PanicsRecovered != 1 || snap.StageFailures["pta.solve"] != 1 {
			t.Fatalf("metrics degraded/panics/stage = %d/%d/%v, want 1/1/{pta.solve:1}",
				snap.JobsDegraded, snap.PanicsRecovered, snap.StageFailures)
		}
		// The degraded job must not have cached an abstraction, nor
		// serve one.
		if snap.CacheEntries != 0 {
			t.Fatalf("degraded run left %d cache entries, want 0", snap.CacheEntries)
		}
		if resp := getJSON(t, ts.URL+"/jobs/"+v.ID+"/abstraction", nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("degraded job serves an abstraction: status %d, want 404", resp.StatusCode)
		}
		// Degraded results are still sound and queryable: w sees B and C.
		var pts struct {
			Types []string `json:"types"`
		}
		getJSON(t, ts.URL+"/jobs/"+v.ID+"/pointsto?var=Main.main/0%23w", &pts)
		if !equalStrings(pts.Types, []string{"B", "C"}) {
			t.Fatalf("degraded pointsto types = %v, want [B C]", pts.Types)
		}
		assertHealthy(t, ts)
	})

	t.Run("solve panic fails when degrade off", func(t *testing.T) {
		v, snap, ts := runCase(t,
			faultinject.OnStage(faultinject.StageSolve, faultinject.Once(faultinject.PanicWith("injected solver bug"))),
			JobSpec{IR: matrixIR, Degrade: boolPtr(false)})
		if v.State != StateFailed || v.Degraded {
			t.Fatalf("state %s degraded %v, want plain failed", v.State, v.Degraded)
		}
		if !strings.Contains(v.Error, "internal error in pta.solve") {
			t.Fatalf("error %q does not carry the typed stage failure", v.Error)
		}
		if snap.JobsFailed != 1 || snap.PanicsRecovered != 1 || snap.StageFailures["pta.solve"] != 1 {
			t.Fatalf("metrics failed/panics/stage = %d/%d/%v", snap.JobsFailed, snap.PanicsRecovered, snap.StageFailures)
		}
		assertHealthy(t, ts)
	})

	t.Run("fpg panic degrades", func(t *testing.T) {
		v, snap, ts := runCase(t,
			faultinject.OnStage(faultinject.StageFPG, faultinject.Once(faultinject.PanicWith("injected fpg bug"))),
			JobSpec{IR: matrixIR})
		if v.State != StateDone || !v.Degraded || !strings.Contains(v.DegradedCause, "fpg.build") {
			t.Fatalf("state %s degraded %v cause %q, want degraded via fpg.build", v.State, v.Degraded, v.DegradedCause)
		}
		if snap.StageFailures["fpg.build"] != 1 {
			t.Fatalf("stage failures %v, want fpg.build:1", snap.StageFailures)
		}
		assertHealthy(t, ts)
	})

	t.Run("modeler panic degrades", func(t *testing.T) {
		v, snap, ts := runCase(t,
			faultinject.OnStage(faultinject.StageModel, faultinject.Once(faultinject.PanicWith("injected modeler bug"))),
			JobSpec{IR: matrixIR})
		if v.State != StateDone || !v.Degraded || !strings.Contains(v.DegradedCause, "core.build") {
			t.Fatalf("state %s degraded %v cause %q, want degraded via core.build", v.State, v.Degraded, v.DegradedCause)
		}
		if snap.StageFailures["core.build"] != 1 {
			t.Fatalf("stage failures %v, want core.build:1", snap.StageFailures)
		}
		assertHealthy(t, ts)
	})

	t.Run("equiv panic in merge worker degrades", func(t *testing.T) {
		// The equivalence seam fires inside the modeler's merge loop: an
		// uncontained panic there would kill the process, not just the
		// job.
		v, snap, ts := runCase(t,
			faultinject.OnStage(faultinject.StageEquiv, faultinject.Once(faultinject.PanicWith("injected equiv bug"))),
			JobSpec{IR: matrixIR})
		if v.State != StateDone || !v.Degraded || !strings.Contains(v.DegradedCause, "automata.equiv") {
			t.Fatalf("state %s degraded %v cause %q, want degraded via automata.equiv", v.State, v.Degraded, v.DegradedCause)
		}
		if snap.StageFailures["automata.equiv"] != 1 {
			t.Fatalf("stage failures %v, want automata.equiv:1", snap.StageFailures)
		}
		assertHealthy(t, ts)
	})

	t.Run("clients panic degrades", func(t *testing.T) {
		v, _, ts := runCase(t,
			faultinject.OnStage(faultinject.StageClients, faultinject.Once(faultinject.PanicWith("injected client bug"))),
			JobSpec{IR: matrixIR})
		if v.State != StateDone || !v.Degraded || !strings.Contains(v.DegradedCause, "clients.evaluate") {
			t.Fatalf("state %s degraded %v cause %q, want degraded via clients.evaluate", v.State, v.Degraded, v.DegradedCause)
		}
		assertHealthy(t, ts)
	})

	t.Run("merge-pair budget exhaustion degrades", func(t *testing.T) {
		// A real budget, not an injected error: three same-typed B sites
		// force >=2 equivalence tests, exceeding merge-pair limit 1. The
		// degraded alloc-site re-run performs no merging, so it fits the
		// same budget.
		v, snap, ts := runCase(t, nil, JobSpec{IR: matrixIR, BudgetPairs: 1})
		if v.State != StateDone || !v.Degraded {
			t.Fatalf("state %s degraded %v (error %q), want degraded done", v.State, v.Degraded, v.Error)
		}
		if !strings.Contains(v.DegradedCause, "merge-pairs") {
			t.Fatalf("degraded cause %q does not name the exhausted resource", v.DegradedCause)
		}
		if snap.BudgetExhausted != 1 {
			t.Fatalf("budget_exhausted = %d, want 1", snap.BudgetExhausted)
		}
		assertHealthy(t, ts)
	})

	t.Run("budget exhaustion fails when degrade off", func(t *testing.T) {
		v, snap, ts := runCase(t, nil, JobSpec{IR: matrixIR, BudgetPairs: 1, Degrade: boolPtr(false)})
		if v.State != StateFailed || !strings.Contains(v.Error, "resource budget exhausted") {
			t.Fatalf("state %s error %q, want failed with budget exhaustion", v.State, v.Error)
		}
		if snap.BudgetExhausted != 1 {
			t.Fatalf("budget_exhausted = %d, want 1", snap.BudgetExhausted)
		}
		assertHealthy(t, ts)
	})

	t.Run("injected budget error degrades", func(t *testing.T) {
		// Exhaustion injected at the solve seam instead of metered: the
		// typed sentinel must be matched through the wrapping.
		v, _, ts := runCase(t,
			faultinject.OnStage(faultinject.StageSolve, faultinject.Once(faultinject.Fail(mahjong.ErrBudgetExhausted))),
			JobSpec{IR: matrixIR})
		if v.State != StateDone || !v.Degraded {
			t.Fatalf("state %s degraded %v (error %q), want degraded done", v.State, v.Degraded, v.Error)
		}
		if !errors.Is(mahjong.ErrBudgetExhausted, mahjong.ErrBudgetExhausted) {
			t.Fatal("sentinel identity lost")
		}
		assertHealthy(t, ts)
	})

	t.Run("corrupt cache entry quarantined", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Workers: 2})
		t.Cleanup(faultinject.Clear)

		// Job 1 fills the cache.
		first := waitJob(t, ts, submit(t, ts, JobSpec{IR: matrixIR}))
		if first.State != StateDone || first.CacheHit {
			t.Fatalf("first job: %s cacheHit=%v", first.State, first.CacheHit)
		}
		// Job 2 hits the now-corrupted entry: the server must quarantine
		// it and rebuild rather than fail or serve garbage.
		faultinject.SetMutator(func(stage string, data []byte) []byte {
			if stage != faultinject.StageCacheLoad {
				return data
			}
			corrupt := append([]byte(nil), data...)
			for i := range corrupt {
				corrupt[i] ^= 0x5a
			}
			return corrupt
		})
		second := waitJob(t, ts, submit(t, ts, JobSpec{IR: matrixIR, Analysis: "2obj"}))
		faultinject.Clear()
		if second.State != StateDone || second.Degraded {
			t.Fatalf("second job: state %s degraded %v (error %q), want clean done (rebuilt)",
				second.State, second.Degraded, second.Error)
		}
		if second.CacheHit {
			t.Fatal("second job claims a cache hit despite quarantine")
		}
		var snap MetricsSnapshot
		getJSON(t, ts.URL+"/metrics?format=json", &snap)
		if snap.CacheQuarantined != 1 || snap.StageFailures["server.cache.load"] != 1 {
			t.Fatalf("quarantined/stage = %d/%v, want 1/{server.cache.load:1}", snap.CacheQuarantined, snap.StageFailures)
		}
		// Merged heaps must agree between the original and the rebuild.
		if first.Result.MergedObjects != second.Result.MergedObjects {
			t.Fatalf("rebuild diverged: %d vs %d merged objects", first.Result.MergedObjects, second.Result.MergedObjects)
		}
		// Job 3: the rebuilt entry serves a clean hit.
		third := waitJob(t, ts, submit(t, ts, JobSpec{IR: matrixIR, Analysis: "ci"}))
		if third.State != StateDone || !third.CacheHit {
			t.Fatalf("third job: state %s cacheHit %v, want done hit", third.State, third.CacheHit)
		}
	})

	t.Run("slow stage hits the deadline", func(t *testing.T) {
		v, snap, ts := runCase(t,
			faultinject.OnStage(faultinject.StageSolve, func(string) error {
				time.Sleep(300 * time.Millisecond)
				return nil
			}),
			JobSpec{IR: matrixIR, TimeoutMS: 50})
		if v.State != StateCancelled {
			t.Fatalf("state %s (error %q), want cancelled by deadline", v.State, v.Error)
		}
		if snap.JobsCancelled != 1 || snap.JobsDegraded != 0 {
			t.Fatalf("cancelled/degraded = %d/%d, want 1/0 (deadlines are not degradable)",
				snap.JobsCancelled, snap.JobsDegraded)
		}
		assertHealthy(t, ts)
	})

	t.Run("job worker panic fails one job", func(t *testing.T) {
		v, snap, ts := runCase(t,
			faultinject.OnStage(faultinject.StageJob, faultinject.Once(faultinject.PanicWith("injected worker bug"))),
			JobSpec{IR: matrixIR})
		if v.State != StateFailed || !strings.Contains(v.Error, "internal error in server.job") {
			t.Fatalf("state %s error %q, want typed server.job failure", v.State, v.Error)
		}
		if snap.StageFailures["server.job"] != 1 {
			t.Fatalf("stage failures %v, want server.job:1", snap.StageFailures)
		}
		assertHealthy(t, ts)
	})

	// After every fault the process must not leak goroutines: servers
	// are closed by subtest cleanups, so the count settles back near the
	// starting level (GC/timer goroutines allow a little slack).
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after fault matrix: %d -> %d\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
