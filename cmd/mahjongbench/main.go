// Command mahjongbench is an open-loop load generator for mahjongd: it
// replays a mixed workload (cold and warm cache submissions,
// incremental base_job_id resubmits, demand queries, mid-flight
// cancellations, fault-injected degraded builds) at several offered
// loads expressed as multiples of the server's measured capacity, and
// reports latency percentiles, throughput and goodput per level.
//
// Unlike a closed-loop driver, arrivals do not wait for completions:
// the offered rate is held regardless of how the server is coping,
// which is what makes overload behavior (admission 429s, deadline
// shedding, batch auto-degradation) observable. Rejected submissions
// retry with jittered exponential backoff honoring Retry-After, like a
// well-behaved client.
//
// Output is one `go test -bench` formatted line per load level:
//
//	mahjongbench -levels 0.5,1,2 -duration 5s
//
// With -slo the run becomes a gate (see `make bench-server`): it exits
// non-zero unless the interactive p99 at the highest level stays under
// -slo-p99, interactive goodput at 2x holds -slo-goodput of its 1x
// value, no accepted job wedges (fails to reach a terminal state), and
// the 2x level actually exhibits overload control (rejections, sheds
// or auto-degrades). By default the daemon runs in-process on a
// loopback listener; -addr points the generator at an external one
// instead (fault injection is then unavailable).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mahjong"
	"mahjong/internal/faultinject"
	"mahjong/internal/server"
)

type config struct {
	addr            string
	levels          []float64
	duration        time.Duration
	calibrate       time.Duration
	workers         int
	queueDepth      int
	autodegradeWait time.Duration
	timeoutMS       int64
	batchTimeoutMS  int64
	programs        []string
	faultEvery      int64
	seed            int64
	slo             bool
	sloP99          time.Duration
	sloGoodput      float64
}

func main() {
	var cfg config
	var levels, programs string
	flag.StringVar(&cfg.addr, "addr", "", "base URL of a running mahjongd (empty = run one in-process)")
	flag.StringVar(&levels, "levels", "0.5,1,2", "offered-load multiples of measured capacity, comma-separated")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "measured window per load level")
	flag.DurationVar(&cfg.calibrate, "calibrate", 2*time.Second, "closed-loop capacity calibration window")
	flag.IntVar(&cfg.workers, "workers", 2, "in-process server worker-pool size")
	flag.IntVar(&cfg.queueDepth, "queue-depth", 16, "in-process server queue depth")
	flag.DurationVar(&cfg.autodegradeWait, "autodegrade-wait", 250*time.Millisecond, "in-process server batch auto-degrade threshold")
	flag.Int64Var(&cfg.timeoutMS, "timeout-ms", 10_000, "interactive/incremental job deadline")
	flag.Int64Var(&cfg.batchTimeoutMS, "batch-timeout-ms", 2_000, "batch job deadline (short, so overload sheds are visible)")
	flag.StringVar(&programs, "programs", "luindex,pmd", "benchmark programs to cycle (first submission per level is a cold build, later ones hit the cache)")
	flag.Int64Var(&cfg.faultEvery, "fault-every", 50, "fail every Nth heap-model build to exercise the degraded path (0 = off; in-process only)")
	flag.Int64Var(&cfg.seed, "seed", 1, "rng seed for arrivals, mix and jitter")
	flag.BoolVar(&cfg.slo, "slo", false, "gate mode: exit 1 when the SLOs below are violated")
	flag.DurationVar(&cfg.sloP99, "slo-p99", 5*time.Second, "SLO: interactive p99 latency bound at the highest level")
	flag.Float64Var(&cfg.sloGoodput, "slo-goodput", 0.8, "SLO: interactive goodput at 2x must hold this fraction of its 1x value")
	flag.Parse()

	for _, f := range strings.Split(levels, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			fatalf("bad -levels entry %q", f)
		}
		cfg.levels = append(cfg.levels, v)
	}
	cfg.programs = strings.Split(programs, ",")
	for _, p := range cfg.programs {
		if _, err := mahjong.GenerateBenchmark(p); err != nil {
			fatalf("bad -programs entry %q: %v", p, err)
		}
	}

	log.SetFlags(0)
	log.SetPrefix("mahjongbench: ")

	if cfg.addr == "" && cfg.faultEvery > 0 {
		var n atomic.Int64
		faultinject.Set(faultinject.OnStage(faultinject.StageModel, func(string) error {
			if n.Add(1)%cfg.faultEvery == 0 {
				return fmt.Errorf("injected heap-model fault (mahjongbench -fault-every)")
			}
			return nil
		}))
		defer faultinject.Clear()
	}

	capacity := calibrate(cfg)
	log.Printf("calibrated capacity ≈ %.1f jobs/s (closed loop, %v window)", capacity, cfg.calibrate)

	stats := map[float64]*levelStats{}
	for _, mult := range cfg.levels {
		st := runLevel(cfg, mult, capacity)
		stats[mult] = st
		fmt.Println(st.benchLine(mult))
	}
	if cfg.slo {
		if msgs := checkSLOs(cfg, stats); len(msgs) > 0 {
			for _, m := range msgs {
				log.Printf("SLO VIOLATION: %s", m)
			}
			os.Exit(1)
		}
		log.Printf("all SLOs held")
	}
}

// target is one server under test: a base URL plus, for in-process
// runs, the Server to close afterwards.
type target struct {
	url   string
	srv   *server.Server
	hsrv  *http.Server
	lis   net.Listener
	owned bool
}

func start(cfg config) target {
	if cfg.addr != "" {
		return target{url: strings.TrimRight(cfg.addr, "/")}
	}
	srv := server.New(server.Config{
		Workers:         cfg.workers,
		QueueDepth:      cfg.queueDepth,
		AutodegradeWait: cfg.autodegradeWait,
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("listen: %v", err)
	}
	hsrv := &http.Server{Handler: srv}
	go hsrv.Serve(lis) //nolint:errcheck // closed via Close below
	return target{url: "http://" + lis.Addr().String(), srv: srv, hsrv: hsrv, lis: lis, owned: true}
}

func (tg target) stop() {
	if !tg.owned {
		return
	}
	tg.hsrv.Close() //nolint:errcheck // listener teardown
	tg.srv.Close()
}

// calibrate measures sustainable throughput with a closed loop: one
// submitting goroutine per worker plus slack, each waiting for its job
// to finish before sending the next.
func calibrate(cfg config) float64 {
	tg := start(cfg)
	defer tg.stop()
	var completed atomic.Int64
	stop := time.Now().Add(cfg.calibrate)
	var wg sync.WaitGroup
	for i := 0; i < cfg.workers*2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(i)))
			for time.Now().Before(stop) {
				id, status := submitOnce(tg.url, spec(cfg, rng, "", ""))
				if status != http.StatusAccepted {
					continue
				}
				if v, ok := await(tg.url, id, 30*time.Second); ok && v.State == "done" {
					completed.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	cap := float64(completed.Load()) / cfg.calibrate.Seconds()
	if cap < 1 {
		cap = 1
	}
	return cap
}

// levelStats aggregates one offered-load level.
type levelStats struct {
	mu        sync.Mutex
	latencies []time.Duration // submit→done, completed jobs only
	iLat      []time.Duration // interactive subset
	completed int
	iDone     int // interactive completions
	rejected  int // gave up after retries
	cancelled int // our own mid-flight cancels
	shed      int // deadline expired while queued
	deadline  int // deadline expired while running
	failed    int // every other failure cause (see server.Cause)
	wedged    int // accepted but never terminal
	offered   int
	window    time.Duration
	delta     server.MetricsSnapshot // end-start counters
}

func runLevel(cfg config, mult, capacity float64) *levelStats {
	tg := start(cfg)
	defer tg.stop()
	rate := mult * capacity
	st := &levelStats{window: cfg.duration}
	base := snapshot(tg.url)

	rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(mult*100)))
	// completedIDs feeds base_job_id resubmits; bounded, newest wins.
	var idMu sync.Mutex
	var completedIDs []string

	var wg sync.WaitGroup
	end := time.Now().Add(cfg.duration)
	for now := time.Now(); now.Before(end); {
		// Open loop: exponential inter-arrival at the offered rate; the
		// sample's fate never delays the next arrival.
		sleep := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		time.Sleep(sleep)
		now = time.Now()
		if !now.Before(end) {
			break
		}
		st.mu.Lock()
		st.offered++
		st.mu.Unlock()
		op := rng.Float64()
		opSeed := rng.Int63()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opSeed))
			var baseID string
			if op >= 0.85 && op < 0.95 { // incremental resubmit when a base exists
				idMu.Lock()
				if len(completedIDs) > 0 {
					baseID = completedIDs[rng.Intn(len(completedIDs))]
				}
				idMu.Unlock()
			}
			class := ""
			switch {
			case op < 0.25:
				class = "batch"
			case baseID != "":
				class = "incremental"
			}
			s := spec(cfg, rng, class, baseID)
			start := time.Now()
			id, status := submitBackoff(tg.url, s, rng, end.Add(2*time.Second))
			if status != http.StatusAccepted {
				st.mu.Lock()
				st.rejected++
				st.mu.Unlock()
				return
			}
			if op >= 0.95 { // mid-flight cancellation
				time.Sleep(time.Duration(5+rng.Intn(25)) * time.Millisecond)
				post(tg.url+"/jobs/"+id+"/cancel", nil) //nolint:errcheck // racing completion is fine
			}
			deadline := time.Duration(s.TimeoutMS)*time.Millisecond + 10*time.Second
			v, ok := await(tg.url, id, deadline)
			st.mu.Lock()
			defer st.mu.Unlock()
			switch {
			case !ok:
				st.wedged++
			case v.State == "done":
				lat := time.Since(start)
				st.completed++
				st.latencies = append(st.latencies, lat)
				if class == "" {
					st.iDone++
					st.iLat = append(st.iLat, lat)
				}
				idMu.Lock()
				if len(completedIDs) < 64 {
					completedIDs = append(completedIDs, id)
				}
				idMu.Unlock()
				if op >= 0.75 && op < 0.85 { // demand query against the finished job
					go post(tg.url+"/jobs/"+id+"/query", map[string]any{"var": "Main.main/0#this"}) //nolint:errcheck // load only
				}
			case v.State == "cancelled" && op >= 0.95:
				st.cancelled++
			case v.Cause == server.CauseShed:
				st.shed++
			case v.Cause == server.CauseDeadline:
				st.deadline++
			default:
				st.failed++
			}
		}()
	}
	wg.Wait()
	st.delta = diff(snapshot(tg.url), base)
	if acct := st.completed + st.cancelled + st.shed + st.deadline + st.failed + st.wedged + st.rejected; acct != st.offered {
		log.Printf("x%g: accounting mismatch: %d of %d offered jobs unaccounted", mult, st.offered-acct, st.offered)
	}
	return st
}

// spec builds one submission. Interactive and incremental jobs run the
// cheap context-insensitive analysis with a long deadline; batch jobs
// run 2obj with a short one, so overload turns into visible shedding
// and auto-degradation rather than silent queueing.
func spec(cfg config, rng *rand.Rand, class, baseID string) server.JobSpec {
	s := server.JobSpec{
		Benchmark: cfg.programs[rng.Intn(len(cfg.programs))],
		Analysis:  "ci",
		Class:     class,
		TimeoutMS: cfg.timeoutMS,
	}
	if class == "batch" {
		s.Analysis = "2obj"
		s.TimeoutMS = cfg.batchTimeoutMS
	}
	if baseID != "" {
		s.BaseJobID = baseID
	}
	return s
}

// submitBackoff submits with jittered exponential backoff on 429/503,
// honoring Retry-After, giving up at the hard stop.
func submitBackoff(url string, s server.JobSpec, rng *rand.Rand, stop time.Time) (string, int) {
	backoff := 50 * time.Millisecond
	for {
		id, status := submitOnce(url, s)
		if status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
			return id, status
		}
		wait := backoff
		if ra := lastRetryAfter.Load(); ra > int64(wait/time.Second) {
			wait = time.Duration(ra) * time.Second
		}
		wait += time.Duration(rng.Int63n(int64(wait)/2 + 1)) // +0–50% jitter
		if time.Now().Add(wait).After(stop) {
			return "", status
		}
		time.Sleep(wait)
		backoff *= 2
	}
}

// lastRetryAfter carries the most recent Retry-After seconds seen by
// submitOnce; per-call plumbing isn't worth it for a load generator.
var lastRetryAfter atomic.Int64

func submitOnce(url string, s server.JobSpec) (string, int) {
	resp, data, err := postRaw(url+"/jobs", s)
	if err != nil {
		return "", 0
	}
	if ra, err := strconv.ParseInt(resp.Header.Get("Retry-After"), 10, 64); err == nil {
		lastRetryAfter.Store(ra)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode
	}
	var v struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(data, &v) != nil {
		return "", resp.StatusCode
	}
	return v.ID, resp.StatusCode
}

type jobView struct {
	State string       `json:"state"`
	Cause server.Cause `json:"cause"`
}

// await polls a job to a terminal state.
func await(url, id string, timeout time.Duration) (jobView, bool) {
	stop := time.Now().Add(timeout)
	for time.Now().Before(stop) {
		resp, err := http.Get(url + "/jobs/" + id)
		if err != nil {
			return jobView{}, false
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err == nil {
			switch v.State {
			case "done", "failed", "cancelled":
				return v, true
			}
		}
		time.Sleep(4 * time.Millisecond)
	}
	return jobView{}, false
}

func snapshot(url string) server.MetricsSnapshot {
	var snap server.MetricsSnapshot
	resp, err := http.Get(url + "/metrics?format=json")
	if err != nil {
		return snap
	}
	defer resp.Body.Close()
	json.NewDecoder(resp.Body).Decode(&snap) //nolint:errcheck // zero snapshot on error
	return snap
}

// diff subtracts the monotone counters this report uses.
func diff(a, b server.MetricsSnapshot) server.MetricsSnapshot {
	a.JobsRejected -= b.JobsRejected
	a.JobsRejectedFull -= b.JobsRejectedFull
	a.JobsRejectedWait -= b.JobsRejectedWait
	a.JobsShed -= b.JobsShed
	a.JobsAutodegraded -= b.JobsAutodegraded
	a.JobsDegraded -= b.JobsDegraded
	a.JobsSubmitted -= b.JobsSubmitted
	a.JobsCompleted -= b.JobsCompleted
	return a
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// benchLine renders one level as a `go test -bench` result line:
// iterations + ns/op, then custom-unit pairs.
func (st *levelStats) benchLine(mult float64) string {
	sort.Slice(st.latencies, func(i, j int) bool { return st.latencies[i] < st.latencies[j] })
	sort.Slice(st.iLat, func(i, j int) bool { return st.iLat[i] < st.iLat[j] })
	var mean time.Duration
	for _, l := range st.latencies {
		mean += l
	}
	iters := st.completed
	if iters > 0 {
		mean /= time.Duration(iters)
	} else {
		iters = 1
	}
	secs := st.window.Seconds()
	return fmt.Sprintf("BenchmarkServerLoad/x%g %d %d ns/op "+
		"%d p50-ns %d p95-ns %d p99-ns "+
		"%.2f jobs/s %.2f goodput-jobs/s %.2f interactive-goodput-jobs/s "+
		"%d offered %d rejected %d shed %d deadline %d autodegraded %d degraded %d cancelled %d failed %d wedged",
		mult, iters, mean.Nanoseconds(),
		percentile(st.latencies, 0.50).Nanoseconds(),
		percentile(st.latencies, 0.95).Nanoseconds(),
		percentile(st.latencies, 0.99).Nanoseconds(),
		float64(st.offered)/secs, float64(st.completed)/secs, float64(st.iDone)/secs,
		st.offered, st.rejected, st.shed, st.deadline, st.delta.JobsAutodegraded,
		st.delta.JobsDegraded, st.cancelled, st.failed, st.wedged)
}

// checkSLOs evaluates the gate over the collected levels.
func checkSLOs(cfg config, stats map[float64]*levelStats) []string {
	var msgs []string
	var hi float64
	for m := range stats {
		if m > hi {
			hi = m
		}
	}
	for m, st := range stats {
		if st.wedged > 0 {
			msgs = append(msgs, fmt.Sprintf("x%g: %d accepted jobs never reached a terminal state", m, st.wedged))
		}
	}
	top := stats[hi]
	sort.Slice(top.iLat, func(i, j int) bool { return top.iLat[i] < top.iLat[j] })
	if p99 := percentile(top.iLat, 0.99); p99 > cfg.sloP99 {
		msgs = append(msgs, fmt.Sprintf("x%g: interactive p99 %v above the %v bound", hi, p99, cfg.sloP99))
	}
	one, two := stats[1], stats[2]
	if one != nil && two != nil {
		g1 := float64(one.iDone) / one.window.Seconds()
		g2 := float64(two.iDone) / two.window.Seconds()
		if g1 > 0 && g2 < cfg.sloGoodput*g1 {
			msgs = append(msgs, fmt.Sprintf("interactive goodput at 2x (%.2f/s) below %.0f%% of 1x (%.2f/s)",
				g2, cfg.sloGoodput*100, g1))
		}
		if two.delta.JobsRejected+two.delta.JobsShed+two.delta.JobsAutodegraded == 0 {
			msgs = append(msgs, "2x overload produced no rejections, sheds or auto-degrades — overload control never engaged")
		}
	}
	return msgs
}

func post(url string, body any) error {
	_, _, err := postRaw(url, body)
	return err
}

func postRaw(url string, body any) (*http.Response, []byte, error) {
	var rdr io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, nil, err
		}
		rdr = strings.NewReader(string(data))
	}
	resp, err := http.Post(url, "application/json", rdr)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mahjongbench: "+format+"\n", args...)
	os.Exit(2)
}
