package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testIR is a small program with a poly call site (w may hold B or C,
// both overriding foo) and a may-fail cast ((C) w can receive a B).
const testIR = `
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
    var w: A
    var c: C
    x = new A
    y = new B
    z = new C
    x.f = y
    x.f = z
    w = x.f
    w.foo()
    c = (C) w
    return
  }
}

entry Main.main/0
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if s, ok := body.(string); ok {
		buf.WriteString(s)
	} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp
}

// submit posts spec and returns the accepted job's ID.
func submit(t *testing.T, ts *httptest.Server, spec JobSpec) string {
	t.Helper()
	resp, data := postJSON(t, ts.URL+"/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, data)
	}
	var v view
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID == "" {
		t.Fatalf("submit: empty job id in %s", data)
	}
	return v.ID
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, ts *httptest.Server, id string) view {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var v view
		resp := getJSON(t, ts.URL+"/jobs/"+id, &v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, resp.StatusCode)
		}
		switch v.State {
		case StateDone, StateFailed, StateCancelled:
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state in time", id)
	return view{}
}

func TestSubmitPollQueryRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	var health map[string]string
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != 200 || health["status"] != "ok" {
		t.Fatalf("healthz: %v %v", resp.StatusCode, health)
	}

	id := submit(t, ts, JobSpec{IR: testIR, Analysis: "2obj"})
	v := waitJob(t, ts, id)
	if v.State != StateDone {
		t.Fatalf("job state %s (error %q), want done", v.State, v.Error)
	}
	if v.Result == nil || !v.Result.Scalable {
		t.Fatalf("missing/unscalable result: %+v", v.Result)
	}
	if v.Result.PolyCallSites != 1 || v.Result.MayFailCasts != 1 {
		t.Fatalf("want 1 poly call site and 1 may-fail cast, got %d/%d",
			v.Result.PolyCallSites, v.Result.MayFailCasts)
	}
	if v.Result.Objects == 0 || v.Result.MergedObjects == 0 {
		t.Fatalf("expected abstraction sizes in result: %+v", v.Result)
	}

	// Points-to query: w = x.f may hold the B and C objects.
	var pts struct {
		Var     string `json:"var"`
		Objects []struct {
			Label string `json:"label"`
			Type  string `json:"type"`
		} `json:"objects"`
		Types []string `json:"types"`
	}
	url := fmt.Sprintf("%s/jobs/%s/pointsto?var=%s", ts.URL, id, "Main.main/0%23w")
	if resp := getJSON(t, url, &pts); resp.StatusCode != 200 {
		t.Fatalf("pointsto: status %d", resp.StatusCode)
	}
	if want := []string{"B", "C"}; !equalStrings(pts.Types, want) {
		t.Fatalf("pointsto types = %v, want %v", pts.Types, want)
	}

	// Poly call sites: exactly the w.foo() dispatch, two targets.
	var poly struct {
		Sites []struct {
			Site    string   `json:"site"`
			Targets []string `json:"targets"`
		} `json:"poly_call_sites"`
	}
	if resp := getJSON(t, ts.URL+"/jobs/"+id+"/polycalls", &poly); resp.StatusCode != 200 {
		t.Fatalf("polycalls: status %d", resp.StatusCode)
	}
	if len(poly.Sites) != 1 || len(poly.Sites[0].Targets) != 2 {
		t.Fatalf("polycalls = %+v, want one site with two targets", poly.Sites)
	}

	// May-fail casts: the (C) w cast.
	var casts struct {
		Casts []struct {
			Target string `json:"target"`
		} `json:"may_fail_casts"`
	}
	if resp := getJSON(t, ts.URL+"/jobs/"+id+"/casts", &casts); resp.StatusCode != 200 {
		t.Fatalf("casts: status %d", resp.StatusCode)
	}
	if len(casts.Casts) != 1 || casts.Casts[0].Target != "C" {
		t.Fatalf("casts = %+v, want one cast to C", casts.Casts)
	}

	// Call graph in both formats.
	var cg struct {
		Methods []any `json:"methods"`
		Edges   []any `json:"edges"`
	}
	if resp := getJSON(t, ts.URL+"/jobs/"+id+"/callgraph", &cg); resp.StatusCode != 200 {
		t.Fatalf("callgraph: status %d", resp.StatusCode)
	}
	if len(cg.Edges) == 0 {
		t.Fatal("callgraph json: no edges")
	}
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/callgraph?format=dot")
	if err != nil {
		t.Fatal(err)
	}
	dot, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(dot), "digraph callgraph") {
		t.Fatalf("callgraph dot output missing header: %.80s", dot)
	}

	// Persisted abstraction is served back.
	var abs struct {
		Version int `json:"version"`
		Objects int `json:"objects"`
	}
	if resp := getJSON(t, ts.URL+"/jobs/"+id+"/abstraction", &abs); resp.StatusCode != 200 {
		t.Fatalf("abstraction: status %d", resp.StatusCode)
	}
	if abs.Version != 1 || abs.Objects == 0 {
		t.Fatalf("abstraction = %+v", abs)
	}

	// The job shows up in the listing.
	var list struct {
		Jobs []view `json:"jobs"`
	}
	if resp := getJSON(t, ts.URL+"/jobs", &list); resp.StatusCode != 200 || len(list.Jobs) != 1 {
		t.Fatalf("jobs list: %v", list)
	}
}

func TestBadRequestsAndNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	badSubmissions := []struct {
		name string
		body any
	}{
		{"invalid json", `{"ir": `},
		{"both ir and benchmark", JobSpec{IR: testIR, Benchmark: "pmd"}},
		{"neither ir nor benchmark", JobSpec{Analysis: "ci"}},
		{"unknown benchmark", JobSpec{Benchmark: "nope"}},
		{"syntactically bad ir", JobSpec{IR: "class {"}},
		{"unknown analysis", JobSpec{IR: testIR, Analysis: "4dim"}},
		{"unknown heap", JobSpec{IR: testIR, Heap: "free-list"}},
		{"negative timeout", JobSpec{IR: testIR, TimeoutMS: -1}},
	}
	for _, tc := range badSubmissions {
		if resp, data := postJSON(t, ts.URL+"/jobs", tc.body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, body %s, want 400", tc.name, resp.StatusCode, data)
		}
	}

	if resp := getJSON(t, ts.URL+"/jobs/j999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/jobs/j999/pointsto?var=x", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("query on unknown job: %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/jobs/j999/cancel", JobSpec{}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job: %d, want 404", resp.StatusCode)
	}

	// Query-time validation on a completed job.
	id := submit(t, ts, JobSpec{IR: testIR})
	if v := waitJob(t, ts, id); v.State != StateDone {
		t.Fatalf("job state %s, want done", v.State)
	}
	if resp := getJSON(t, ts.URL+"/jobs/"+id+"/pointsto", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("pointsto without var: %d, want 400", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/jobs/"+id+"/pointsto?var=No.such/0%23v", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("pointsto unknown var: %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/jobs/"+id+"/callgraph?format=xml", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("callgraph bad format: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/jobs/"+id+"/cancel", JobSpec{}); resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel done job: %d, want 409", resp.StatusCode)
	}
}

// TestAbstractionCacheHit proves the second submission of identical IR
// skips the Mahjong build: the cache-hit counter moves and the job
// reports abstraction_cache_hit.
func TestAbstractionCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	first := waitJob(t, ts, submit(t, ts, JobSpec{IR: testIR}))
	if first.State != StateDone || first.CacheHit {
		t.Fatalf("first job: state %s cacheHit %v, want done/false", first.State, first.CacheHit)
	}
	second := waitJob(t, ts, submit(t, ts, JobSpec{IR: testIR, Analysis: "2obj"}))
	if second.State != StateDone || !second.CacheHit {
		t.Fatalf("second job: state %s cacheHit %v, want done/true", second.State, second.CacheHit)
	}

	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics?format=json", &snap)
	if snap.CacheMisses != 1 || snap.CacheHits != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
	// Both runs produced identical merged heaps.
	if first.Result.MergedObjects != second.Result.MergedObjects {
		t.Fatalf("merged objects diverged across cache: %d vs %d",
			first.Result.MergedObjects, second.Result.MergedObjects)
	}
}

// TestCacheKeyIsCanonical: the cache is keyed by the canonical text,
// not the submitted bytes. The same program with extra blank lines,
// comments and different spacing is a hit; one changed statement is a
// miss.
func TestCacheKeyIsCanonical(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	reformatted := strings.NewReplacer(
		"class A {", "// the base class\n\nclass   A {",
		"    x = new A\n", "\tx=new A   // first site\n\n",
		"w.foo()", "w.foo( )",
		"entry Main.main/0", "entry Main.main/0 // entry point",
	).Replace(testIR)
	edited := strings.Replace(testIR, "y = new B", "y = new C", 1)
	if reformatted == testIR || edited == testIR {
		t.Fatal("test programs equal the original text")
	}

	for i, c := range []struct {
		ir      string
		wantHit bool
	}{{testIR, false}, {reformatted, true}, {edited, false}} {
		v := waitJob(t, ts, submit(t, ts, JobSpec{IR: c.ir}))
		if v.State != StateDone || v.CacheHit != c.wantHit {
			t.Fatalf("submission %d: state %s (error %q) cacheHit %v, want done/%v", i, v.State, v.Error, v.CacheHit, c.wantHit)
		}
	}
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics?format=json", &snap)
	if snap.CacheMisses != 2 || snap.CacheHits != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/2", snap.CacheHits, snap.CacheMisses)
	}
}

// TestConcurrentSameBenchmark is the acceptance scenario: two parallel
// submissions of the same benchmark complete, exactly one builds the
// abstraction, and the other reports a cache hit in /metrics.
func TestConcurrentSameBenchmark(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i := range ids {
		ids[i] = submit(t, ts, JobSpec{Benchmark: "luindex", Analysis: "ci"})
	}
	views := make([]view, 2)
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[i] = waitJob(t, ts, id)
		}()
	}
	wg.Wait()

	hits := 0
	for i, v := range views {
		if v.State != StateDone {
			t.Fatalf("job %d: state %s (error %q), want done", i, v.State, v.Error)
		}
		if v.CacheHit {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("cache hits among parallel jobs = %d, want exactly 1", hits)
	}
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics?format=json", &snap)
	if snap.CacheMisses != 1 || snap.CacheHits != 1 {
		t.Fatalf("metrics cache hits/misses = %d/%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
	if snap.JobsCompleted != 2 {
		t.Fatalf("jobs completed = %d, want 2", snap.JobsCompleted)
	}
}

// TestDeadlineCancelledJob submits with a 1ms deadline: the job must
// reach cancelled without wedging the worker pool.
func TestDeadlineCancelledJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	v := waitJob(t, ts, submit(t, ts, JobSpec{Benchmark: "luindex", Analysis: "2obj", TimeoutMS: 1}))
	if v.State != StateCancelled {
		t.Fatalf("deadline job: state %s (error %q), want cancelled", v.State, v.Error)
	}
	if !strings.Contains(v.Error, "deadline") && !strings.Contains(v.Error, "cancel") {
		t.Fatalf("deadline job error %q does not mention the deadline", v.Error)
	}

	// The single worker survives and serves the next job.
	after := waitJob(t, ts, submit(t, ts, JobSpec{IR: testIR}))
	if after.State != StateDone {
		t.Fatalf("follow-up job: state %s, want done", after.State)
	}

	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics?format=json", &snap)
	if snap.JobsCancelled != 1 || snap.JobsRunning != 0 {
		t.Fatalf("metrics cancelled/running = %d/%d, want 1/0", snap.JobsCancelled, snap.JobsRunning)
	}
}

// TestCancelRunningJob cancels an in-flight heavyweight analysis.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	// Baseline 3obj on a mid-tier benchmark: far too slow to finish
	// before the cancel lands.
	id := submit(t, ts, JobSpec{Benchmark: "checkstyle", Analysis: "3obj", Heap: "alloc-site"})
	deadline := time.Now().Add(60 * time.Second)
	for {
		var v view
		getJSON(t, ts.URL+"/jobs/"+id, &v)
		if v.State == StateRunning {
			break
		}
		if v.State != StateQueued {
			t.Fatalf("job state %s before cancel", v.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, data := postJSON(t, ts.URL+"/jobs/"+id+"/cancel", JobSpec{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d, body %s", resp.StatusCode, data)
	}
	if v := waitJob(t, ts, id); v.State != StateCancelled {
		t.Fatalf("cancelled job: state %s, want cancelled", v.State)
	}
}

// TestPrometheusMetricsFormat spot-checks the text exposition.
func TestPrometheusMetricsFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	waitJob(t, ts, submit(t, ts, JobSpec{IR: testIR}))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"mahjongd_jobs_submitted_total 1",
		"mahjongd_jobs_completed_total 1",
		"mahjongd_abstraction_cache_misses_total 1",
		"# TYPE mahjongd_jobs_running gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
