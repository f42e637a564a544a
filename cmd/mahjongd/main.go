// Command mahjongd runs the Mahjong analysis daemon: an HTTP/JSON
// service that accepts program submissions (textual IR or built-in
// benchmark names), analyzes them asynchronously on a bounded worker
// pool with per-job deadlines, caches built heap abstractions by
// program content hash, and serves client queries (points-to sets,
// call graphs, may-fail casts, poly call sites) from completed jobs.
//
//	mahjongd -addr=:8080 -workers=4 -job-timeout=2m
//
// See docs/SERVER.md for the API reference and a curl quickstart.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mahjong"
	"mahjong/internal/sched"
	"mahjong/internal/server"
)

// parseClassQuotas parses "interactive=4,incremental=2,batch=1" (any
// subset, any order) into the per-class quota array.
func parseClassQuotas(s string) ([sched.NumClasses]int, error) {
	var quotas [sched.NumClasses]int
	if s == "" {
		return quotas, nil
	}
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return quotas, fmt.Errorf("malformed pair %q (want class=N)", pair)
		}
		class, ok := sched.ParseClass(strings.TrimSpace(name))
		if !ok {
			return quotas, fmt.Errorf("unknown class %q (want interactive, incremental or batch)", name)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 0 {
			return quotas, fmt.Errorf("invalid quota %q for class %s (want a non-negative integer)", val, class)
		}
		quotas[class] = n
	}
	return quotas, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "analysis worker pool size")
	queueDepth := flag.Int("queue-depth", 64, "max jobs waiting for a worker (full queue rejects with 429 + Retry-After)")
	admission := flag.Bool("admission", true, "reject jobs whose estimated queue wait already exceeds their deadline (429 + Retry-After)")
	classQuotas := flag.String("class-quotas", "", "per-class concurrency caps as name=N pairs, e.g. interactive=4,batch=1 (0 or absent = uncapped)")
	autodegradeWait := flag.Duration("autodegrade-wait", 0, "queue-wait threshold above which new batch jobs auto-degrade to the alloc-site abstraction (0 = off)")
	cacheEntries := flag.Int("cache", 64, "abstraction cache capacity in programs (-1 = unbounded)")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "default per-job deadline (0 = none)")
	shutdownGrace := flag.Duration("shutdown-grace", 5*time.Second, "how long shutdown waits for in-flight jobs before cancelling them (negative = forever)")
	maxProgram := flag.Int64("max-program-bytes", 8<<20, "max POST /jobs body size in bytes")
	budgetFacts := flag.Int64("budget-facts", 0, "default per-job cap on propagated points-to facts (0 = unlimited)")
	budgetWords := flag.Int64("budget-words", 0, "default per-job cap on cumulative points-to words grown by the job's solves, counting each set's window from its lowest to its highest set word (0 = unlimited)")
	budgetPairs := flag.Int64("budget-pairs", 0, "default per-job cap on automata merge pairs (0 = unlimited)")
	noDegrade := flag.Bool("no-degrade", false, "disable the allocation-site fallback when abstraction building fails")
	slowJob := flag.Duration("slow-job", 0, "log the span tree of any job taking at least this long (0 = off)")
	debugAddr := flag.String("debug-addr", "", "listen address for net/http/pprof profiling endpoints (empty = disabled; never exposed on -addr)")
	deltaStates := flag.Int("delta-states", 4, "completed-job analysis states retained for incremental base_job_id resubmissions (-1 = unbounded)")
	queryBudget := flag.Int64("query-budget", 0, "work cap for POST /jobs/{id}/query demand solves (0 = 200k, -1 = unlimited)")
	version := flag.Bool("version", false, "print the version and exit")
	flag.Parse()

	if *version {
		fmt.Println("mahjongd", mahjong.Version)
		return
	}

	quotas, err := parseClassQuotas(*classQuotas)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mahjongd: -class-quotas:", err)
		os.Exit(2)
	}

	srv := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		NoAdmission:     !*admission,
		ClassQuotas:     quotas,
		AutodegradeWait: *autodegradeWait,
		DefaultTimeout:  *jobTimeout,
		CacheEntries:    *cacheEntries,
		ShutdownGrace:   *shutdownGrace,
		MaxProgramBytes: *maxProgram,
		Budget: mahjong.ResourceBudget{
			Facts:       *budgetFacts,
			BitsetWords: *budgetWords,
			MergePairs:  *budgetPairs,
		},
		NoDegrade:   *noDegrade,
		SlowJob:     *slowJob,
		DeltaStates: *deltaStates,
		QueryBudget: *queryBudget,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The pprof surface binds its own listener (typically localhost),
	// never the serving mux: profiles leak heap contents and symbols,
	// so they stay off the job-submission address entirely.
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           server.DebugHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("mahjongd: debug listener: %v", err)
			}
		}()
		log.Printf("mahjongd debug (pprof) listening on %s", *debugAddr)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("mahjongd listening on %s (%d workers, job timeout %v)", *addr, *workers, *jobTimeout)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("mahjongd: received %v, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("mahjongd: shutdown: %v", err)
		}
		if debugSrv != nil {
			debugSrv.Shutdown(ctx) //nolint:errcheck // best effort on the way out
		}
		srv.Close()
	case err := <-errc:
		if debugSrv != nil {
			debugSrv.Close()
		}
		srv.Close()
		fmt.Fprintln(os.Stderr, "mahjongd:", err)
		os.Exit(1)
	}
}
