package main

// daemon-mix: mahjongd in process on a loopback listener, driven by two
// closed-loop HTTP clients submitting IR jobs over a warmed abstraction
// cache.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"mahjong"
	"mahjong/internal/parser"
	"mahjong/internal/server"
)

var (
	daemonSubjects = []string{"luindex", "lusearch", "antlr", "fop", "pmd", "checkstyle"}
	daemonAnalyses = []string{"ci", "2obj", "3obj", "2type"}
)

const (
	daemonClients = 2
	pollInterval  = 2 * time.Millisecond
	// epochRounds is how many rounds one daemon instance serves.
	epochRounds = 1
)

// jobView is the part of mahjongd's job view the checks read.
type jobView struct {
	ID            string      `json:"id"`
	State         string      `json:"state"`
	Error         string      `json:"error"`
	CacheHit      bool        `json:"abstraction_cache_hit"`
	Degraded      bool        `json:"degraded"`
	DegradedCause string      `json:"degraded_cause"`
	Created       string      `json:"created"`
	Started       string      `json:"started"`
	Finished      string      `json:"finished"`
	Result        *resultJSON `json:"result"`
}

// resultJSON is a job's result view without its timing field.
type resultJSON struct {
	Scalable       bool    `json:"scalable"`
	Work           int64   `json:"work"`
	CSObjects      int     `json:"cs_objects"`
	CSMethods      int     `json:"cs_methods"`
	CallGraphEdges int     `json:"call_graph_edges"`
	PolyCallSites  int     `json:"poly_call_sites"`
	MayFailCasts   int     `json:"may_fail_casts"`
	Reachable      int     `json:"reachable_methods"`
	Objects        int     `json:"objects"`
	MergedObjects  int     `json:"merged_objects"`
	Reduction      float64 `json:"reduction"`
}

// daemonJob is one (program, analysis) submission.
type daemonJob struct {
	subject  int
	analysis string
	body     []byte
}

// expected is the in-process facade result of one daemonJob.
type expected struct {
	view    resultJSON
	outcome outcome
}

// daemon is an in-process mahjongd serving on a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Config{Workers: 2})
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener and the worker pool down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Close()
	d.client.CloseIdleConnections()
	return err
}

func (d *daemon) do(ctx context.Context, method, path string, body []byte, want int, into any) error {
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	return json.Unmarshal(data, into)
}

// daemonOp is one finished submission as its client saw it.
type daemonOp struct {
	job   daemonJob
	view  jobView
	poly  int
	wall  time.Duration
	times serverTimes
	err   error
}

// run submits job, polls until it is terminal, then fetches its
// polymorphic call sites. A non-nil rec records the three phases as
// spans of operation opID.
func (d *daemon) run(ctx context.Context, job daemonJob, rec *recorder, opID int) daemonOp {
	op := daemonOp{job: job}
	phase := func(name string, fn func() error) error {
		if rec == nil {
			return fn()
		}
		return rec.layer(name, fn)
	}
	if rec != nil {
		rec.begin(opID)
	}
	t0 := time.Now()
	var submitted jobView
	op.err = phase("server.submit", func() error {
		return d.do(ctx, http.MethodPost, "/jobs", job.body, http.StatusAccepted, &submitted)
	})
	if op.err == nil {
		op.err = phase("server.poll", func() error {
			for {
				if err := d.do(ctx, http.MethodGet, "/jobs/"+submitted.ID, nil, http.StatusOK, &op.view); err != nil {
					return err
				}
				switch op.view.State {
				case "done", "failed", "cancelled":
					return nil
				}
				time.Sleep(pollInterval)
			}
		})
	}
	if op.err == nil && op.view.State == "done" {
		var pc struct {
			Sites []json.RawMessage `json:"poly_call_sites"`
		}
		op.err = phase("server.fetch", func() error {
			return d.do(ctx, http.MethodGet, "/jobs/"+submitted.ID+"/polycalls", nil, http.StatusOK, &pc)
		})
		op.poly = len(pc.Sites)
	}
	op.wall = time.Since(t0)
	if rec != nil {
		rec.end()
	}
	// Split the wall time at the job's own timestamps (same clock):
	// submission until the job exists, its queue wait, its run, and the
	// rest — noticing completion and fetching the call sites.
	op.times = serverTimes{cacheHit: op.view.CacheHit}
	created, err1 := time.Parse(time.RFC3339Nano, op.view.Created)
	started, err2 := time.Parse(time.RFC3339Nano, op.view.Started)
	finished, err3 := time.Parse(time.RFC3339Nano, op.view.Finished)
	if err1 == nil && err2 == nil && err3 == nil {
		op.times.submitMS = ms(created.Sub(t0))
		op.times.queueMS = ms(started.Sub(created))
		op.times.runMS = ms(finished.Sub(started))
		op.times.pollMS = ms(op.wall) - ms(finished.Sub(t0))
	}
	return op
}

// check reports why a finished operation fails, or nil.
func (op daemonOp) check(want expected) error {
	switch {
	case op.err != nil:
		return op.err
	case op.view.State != "done":
		return fmt.Errorf("job %s ended %s: %s", op.view.ID, op.view.State, op.view.Error)
	case op.view.Degraded:
		return fmt.Errorf("job %s degraded: %s", op.view.ID, op.view.DegradedCause)
	case !op.view.CacheHit:
		return fmt.Errorf("job %s missed the warmed abstraction cache", op.view.ID)
	case op.view.Result == nil:
		return fmt.Errorf("job %s has no result", op.view.ID)
	case !op.view.Result.Scalable:
		return fmt.Errorf("job %s came back unscalable", op.view.ID)
	case *op.view.Result != want.view:
		return fmt.Errorf("job %s result differs from the facade's:\n  daemon %+v\n  facade %+v", op.view.ID, *op.view.Result, want.view)
	case op.poly != want.view.PolyCallSites:
		return fmt.Errorf("job %s lists %d poly call sites, its result view says %d", op.view.ID, op.poly, want.view.PolyCallSites)
	}
	return nil
}

// sequence hands out a seeded sequence of jobs to concurrent clients
// in whole rounds; a round is a permutation of every job.
type sequence struct {
	mu     sync.Mutex
	rng    *rand.Rand
	jobs   []daemonJob
	round  []int
	next   int
	rounds int
	limit  int // rounds to hand out
	issued int
}

// take returns the next job, its operation number and its round, or
// ok=false once every round has been handed out.
func (s *sequence) take() (job daemonJob, opID, round int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == len(s.round) {
		if s.rounds == s.limit {
			return daemonJob{}, 0, 0, false
		}
		s.round, s.next = s.rng.Perm(len(s.jobs)), 0
		s.rounds++
	}
	job = s.jobs[s.round[s.next]]
	s.next++
	s.issued++
	return job, s.issued - 1, s.rounds - 1, true
}

// drive runs the clients over rounds rounds of the sequence drawn from
// rng, numbering operations from firstOp and rounds from firstRound. A
// traced run records spans on every odd round.
func (d *daemon) drive(ctx context.Context, jobs []daemonJob, rng *rand.Rand, firstOp, firstRound, rounds int, traced bool) ([]daemonOp, []bool, []*recorder, time.Duration) {
	seq := &sequence{rng: rng, jobs: jobs, limit: rounds, issued: firstOp}
	start := time.Now()
	var (
		mu     sync.Mutex
		ops    []daemonOp
		marked []bool
		wg     sync.WaitGroup
	)
	recs := make([]*recorder, daemonClients)
	for c := range recs {
		recs[c] = newRecorder(start)
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			for {
				job, opID, round, ok := seq.take()
				if !ok {
					return
				}
				mark := traced && (firstRound+round)%2 == 1
				var r *recorder
				if mark {
					r = rec
				}
				op := d.run(ctx, job, r, opID)
				mu.Lock()
				ops = append(ops, op)
				marked = append(marked, mark)
				mu.Unlock()
			}
		}(recs[c])
	}
	wg.Wait()
	return ops, marked, recs, time.Since(start)
}

// warm submits every subject once, so later jobs hit the cache, and
// waits for all of them.
func (d *daemon) warm(ctx context.Context, jobs []daemonJob) error {
	var ids []string
	for _, j := range jobs {
		var v jobView
		if err := d.do(ctx, http.MethodPost, "/jobs", j.body, http.StatusAccepted, &v); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		for {
			var v jobView
			if err := d.do(ctx, http.MethodGet, "/jobs/"+id, nil, http.StatusOK, &v); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if v.State == "done" {
				break
			}
			if v.State == "failed" || v.State == "cancelled" {
				return fmt.Errorf("warm-up job %s ended %s: %s", id, v.State, v.Error)
			}
			time.Sleep(pollInterval)
		}
	}
	return nil
}

func runDaemonMix(ctx context.Context, cfg runConfig) (*runResult, error) {
	res := &runResult{}
	res.speed.sample()
	var (
		subs   []subject
		jobs   []daemonJob
		warmup []daemonJob
		d      *daemon
		setup  []float64
	)
	defer func() {
		if d != nil {
			_ = d.stop()
		}
	}()
	for i := 0; i < cfg.setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
			d = nil
		}
		t := time.Now()
		subs, jobs, warmup = nil, nil, nil
		for si, n := range daemonSubjects {
			s, err := genSubject(n, cfg.seed)
			if err != nil {
				return nil, err
			}
			subs = append(subs, s)
			for _, a := range daemonAnalyses {
				body, err := json.Marshal(server.JobSpec{IR: s.ir, Analysis: a})
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, daemonJob{subject: si, analysis: a, body: body})
			}
			warmup = append(warmup, jobs[len(jobs)-len(daemonAnalyses)])
		}
		var err error
		if d, err = startDaemon(); err != nil {
			return nil, err
		}
		if err := d.warm(ctx, warmup); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t).Seconds())
	}

	// Untimed: the facade's result for every job, the pins, and what the
	// replica needs to load a cached abstraction.
	want := map[[2]string]expected{}
	saved := make([][]byte, len(subs))
	for si, s := range subs {
		prog, err := mahjong.ParseProgram(s.name, s.ir)
		if err != nil {
			return nil, err
		}
		abs, err := mahjong.BuildAbstractionContext(ctx, prog, mahjong.AbstractionOptions{})
		if err != nil {
			return nil, fmt.Errorf("reference build of %s: %w", s.name, err)
		}
		var buf bytes.Buffer
		if err := abs.Save(&buf); err != nil {
			return nil, err
		}
		saved[si] = buf.Bytes()
		for _, a := range daemonAnalyses {
			rep, err := analyzeFacade(ctx, prog, abs, a)
			if err != nil {
				return nil, fmt.Errorf("reference analysis of %s %s: %w", s.name, a, err)
			}
			m := rep.Metrics
			want[[2]string{s.name, a}] = expected{
				view: resultJSON{
					Scalable: rep.Scalable, Work: rep.Work, CSObjects: rep.CSObjects, CSMethods: rep.CSMethods,
					CallGraphEdges: m.CallGraphEdges, PolyCallSites: m.PolyCallSites, MayFailCasts: m.MayFailCasts,
					Reachable: m.Reachable, Objects: abs.Objects, MergedObjects: abs.MergedObjects, Reduction: abs.Reduction(),
				},
				outcome: facadeOutcome(abs, rep),
			}
			if pinned, err := checkPin(cfg.seed, s.name, a, m); err != nil {
				res.problem("%v", err)
			} else if pinned {
				res.note("pin %s M-%s: ok", s.name, a)
			}
		}
	}

	window := cfg.seconds
	if cfg.traced {
		window /= 2 // the other half runs the in-process replica
	}
	// mahjongd keeps every job it served in memory, so one instance
	// serving the whole window would grow without bound. The window is
	// served in epochs of epochRounds rounds instead, each by a freshly
	// started and warmed daemon; replacing it is not measured.
	var (
		ops    []daemonOp
		marked []bool
		recs   []*recorder
		loop   time.Duration
		alloc  uint64
	)
	rng := rand.New(rand.NewSource(cfg.seed))
	// Collect set-up and reference garbage now, and each retired
	// daemon's jobs below, so the heap a later epoch grows from is the
	// same every time.
	runtime.GC()
	// A traced run needs one plain and one traced round at least.
	for epoch := 0; epoch == 0 || loop.Seconds() < window || (cfg.traced && epoch*epochRounds < 2); epoch++ {
		if epoch > 0 {
			if err := d.stop(); err != nil {
				return nil, err
			}
			d = nil
			res.speed.sample() // collects the retired daemon's jobs first
			var err error
			if d, err = startDaemon(); err != nil {
				return nil, err
			}
			if err := d.warm(ctx, warmup); err != nil {
				return nil, err
			}
		}
		a0 := heapAllocs()
		eops, emarked, erecs, el := d.drive(ctx, jobs, rng, len(ops), epoch*epochRounds, epochRounds, cfg.traced)
		alloc += heapAllocs() - a0
		loop += el
		ops, marked, recs = append(ops, eops...), append(marked, emarked...), append(recs, erecs...)
	}
	res.speed.sample()
	res.note("daemon epochs of %d rounds: %d operations in %.2fs", epochRounds, len(ops), loop.Seconds())
	var lat, plainMS, tracedMS []float64
	var served []serverTimes
	byJob := map[[2]string][]float64{}
	for i, op := range ops {
		res.attempted++
		if err := op.check(want[[2]string{subs[op.job.subject].name, op.job.analysis}]); err != nil {
			res.failed++
			res.problem("%s %s: %v", subs[op.job.subject].name, op.job.analysis, err)
			continue
		}
		lat = append(lat, ms(op.wall))
		key := [2]string{subs[op.job.subject].name, op.job.analysis}
		byJob[key] = append(byJob[key], ms(op.wall))
		if marked[i] {
			tracedMS = append(tracedMS, ms(op.wall))
			served = append(served, op.times)
		} else {
			plainMS = append(plainMS, ms(op.wall))
		}
	}
	for _, j := range jobs {
		key := [2]string{subs[j.subject].name, j.analysis}
		if xs := byJob[key]; len(xs) > 0 {
			res.note("%s %s: p50 %.1f ms over %d jobs", key[0], key[1], median(xs), len(xs))
		}
	}
	if !cfg.traced {
		if err := res.endToEnd(setup, lat, loop.Seconds(), alloc); err != nil {
			return nil, err
		}
		return res, nil
	}

	// The in-process replica of a cache-hit job: parse, load the cached
	// abstraction, main solve, clients.
	rec := newRecorder(time.Now())
	var replica []tracedOp
	rng = rand.New(rand.NewSource(cfg.seed + 1))
	start := time.Now()
	for opID := len(ops); ; {
		for _, i := range rng.Perm(len(jobs)) {
			job := jobs[i]
			s := subs[job.subject]
			rec.begin(opID)
			op, o, abs, err := replicaOp(ctx, rec, s, saved[job.subject], job.analysis)
			rec.end()
			op.id = opID
			opID++
			if err != nil {
				res.failed++
				res.problem("%s %s (replica): %v", s.name, job.analysis, err)
				continue
			}
			o.MOM, o.Objects, o.Merged = momSignature(abs.MOM), abs.Objects, abs.MergedObjects
			if w := want[[2]string{s.name, job.analysis}].outcome; o != w {
				res.failed++
				res.problem("%s %s: replica result differs from the facade's:\n  replica %v\n  facade  %v", s.name, job.analysis, o, w)
			}
			replica = append(replica, op)
		}
		res.speed.sample()
		if time.Since(start).Seconds() >= window {
			break
		}
	}
	res.spans = mergeSpans(append(recs, rec)...)
	res.perLayer(replica, rec.spans, plainMS, tracedMS)
	res.serverLayer(served)
	return res, nil
}

// replicaOp is the in-process replica of one cache-hit daemon job; it
// returns the abstraction loaded from the cached bytes.
func replicaOp(ctx context.Context, rec *recorder, s subject, saved []byte, analysis string) (tracedOp, outcome, *mahjong.Abstraction, error) {
	var op tracedOp
	prog, err := parse(rec, s.name, s.ir)
	if err != nil {
		return op, outcome{}, nil, err
	}
	op.parsedBytes = len(s.ir)
	var abs *mahjong.Abstraction
	if err := rec.layer(spanCacheLoad, func() (err error) {
		// The daemon keys its cache by the printed program, then rebinds
		// the saved classes to the job's own allocation sites.
		_ = parser.Print(prog)
		abs, err = mahjong.LoadAbstraction(bytes.NewReader(saved), prog)
		return err
	}); err != nil {
		return op, outcome{}, nil, fmt.Errorf("cache load: %w", err)
	}
	o, ac, err := analyze(ctx, rec, prog, abs.MOM, analysis)
	if err != nil {
		return op, outcome{}, nil, err
	}
	op.main = &ac
	return op, o, abs, nil
}

// mergeSpans concatenates the spans of several recorders, rebasing
// parent indexes.
func mergeSpans(recs ...*recorder) []span {
	var out []span
	for _, r := range recs {
		base := len(out)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}
