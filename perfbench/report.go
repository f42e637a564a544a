package main

import "time"

// timeSetup runs fn reps times and returns each run's duration in
// seconds; set-up state from the last run is what the workload keeps.
func timeSetup(reps int, fn func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t).Seconds())
	}
	return out, nil
}

// endToEnd records the metrics of an untraced run: latencies of the
// completed operations in ms, the measured seconds they were completed
// in, and the heap bytes the operations allocated. Time-valued metrics
// are reported at reference speed; the raw values are printed too.
func (r *runResult) endToEnd(setup, lat []float64, measured float64, alloc uint64) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	k := r.speed.scale()
	p50 := median(lat)
	tv, pct := tail(lat)
	ops := float64(len(lat))
	r.set("setup_s", median(setup)*k, "s")
	r.set("op_p50_ms", p50*k, "ms")
	r.set("op_tail_ms", tv*k, "ms")
	if measured > 0 {
		r.set("ops_per_s", ops/measured/k, "1/s")
	}
	if ops > 0 {
		r.set("alloc_mb_per_op", float64(alloc)/ops/(1<<20), "MB")
	}
	r.set("peak_rss_mb", rss, "MB")
	r.note("op_tail_ms is p%.1f of %d completed operations", pct, len(lat))
	r.note("reference kernel median %.3f ms over %d samples: time metrics scaled by %.4f", median(r.speed.samples), len(r.speed.samples), k)
	r.note("raw: setup_s %.4f, op_p50_ms %.3f, op_tail_ms %.3f, ops_per_s %.4f", median(setup), p50, tv, ops/max(measured, 1e-9))
	r.note("setup_s samples %v", setup)
	return nil
}

// tracedOp is one operation of a traced run: its span profile plus the
// work counts the layers returned.
type tracedOp struct {
	id          int // the operation's span id
	prof        opProfile
	parsedBytes int
	build       *buildCounts
	main        *analyzeCounts
}

// serverTimes splits one daemon operation's wall time at the job's
// created, started and finished timestamps.
type serverTimes struct {
	submitMS, queueMS, runMS, pollMS float64
	cacheHit                         bool
}

// perLayerNames lists every per-layer metric with its unit, in
// BENCHMARK.json order. Layers a workload does not exercise report 0.
var perLayerNames = []struct{ name, unit string }{
	{"parser.self_ms", "ms"}, {"parser.share", "ratio"}, {"parser.mb_per_s", "MB/s"}, {"parser.alloc_mb", "MB"},
	{"pta.pre.self_ms", "ms"}, {"pta.pre.share", "ratio"}, {"pta.pre.propagated_bits", "count"},
	{"pta.pre.nodes", "count"}, {"pta.pre.collapsed_nodes", "count"}, {"pta.pre.alloc_mb", "MB"},
	{"fpg.self_ms", "ms"}, {"fpg.share", "ratio"}, {"fpg.field_facts", "count"}, {"fpg.alloc_mb", "MB"},
	{"core.self_ms", "ms"}, {"core.share", "ratio"}, {"core.merged_objects", "count"}, {"core.dfa_states", "count"},
	{"core.dfa_sharing", "ratio"}, {"core.alloc_mb", "MB"},
	{"pta.main.self_ms", "ms"}, {"pta.main.share", "ratio"}, {"pta.main.propagated_bits", "count"},
	{"pta.main.cs_objects", "count"}, {"pta.main.alloc_mb", "MB"},
	{"clients.self_ms", "ms"}, {"clients.share", "ratio"}, {"clients.escape_ms", "ms"}, {"clients.nullness_ms", "ms"},
	{"clients.taint_ms", "ms"}, {"clients.dispatch_ms", "ms"}, {"clients.alloc_mb", "MB"},
	{"cache.load.self_ms", "ms"},
	{"server.submit_ms", "ms"}, {"server.queue_wait_ms", "ms"}, {"server.run_ms", "ms"}, {"server.poll_ms", "ms"},
	{"server.cache_hit_share", "ratio"},
	{"trace.overhead_share", "ratio"}, {"trace.stage_sum_share", "ratio"},
}

// warmLayerNames lists the warm-path metrics, reported on top of
// perLayerNames only by runs whose operations build incrementally
// (edit-loop, which BENCHMARK.json does not list; see editloop.go).
var warmLayerNames = []struct{ name, unit string }{
	{"core.reuse_share", "ratio"},
	{"delta.self_ms", "ms"}, {"delta.share", "ratio"}, {"delta.changed_methods", "count"}, {"delta.warm_share", "ratio"},
	{"pta.warm.self_ms", "ms"}, {"pta.warm.seeded_facts", "count"}, {"pta.warm.dirty_methods", "count"},
}

// perLayer records the per-layer metrics of a traced run, times at
// reference speed. plainMS and tracedMS are the wall times of the
// untraced and traced executions of the same operations, for the
// tracing overhead. Every operation's
// layer and glue spans must account for at least 95% of its wall time.
//
// X.self_ms is the median per-operation self time of layer X (the
// clients layer includes its four sub-spans), X.share its total over
// the total operation wall time, X.alloc_mb its mean per-operation
// allocation, and every count the mean over the operations that ran
// the layer.
func (r *runResult) perLayer(ops []tracedOp, spans []span, plainMS, tracedMS []float64) {
	warmRun := false
	for _, o := range ops {
		warmRun = warmRun || (o.build != nil && o.build.inc != nil)
	}
	names := perLayerNames
	if warmRun {
		names = append(names[:len(names):len(names)], warmLayerNames...)
	}
	for _, m := range names {
		r.set(m.name, 0, m.unit)
	}
	profs := profiles(spans)
	for i := range ops {
		ops[i].prof = profs[ops[i].id]
	}
	if len(ops) == 0 {
		return
	}
	k := r.speed.scale()
	var wall, rootSelf float64
	worst := 1.0
	for _, o := range ops {
		wall += float64(o.prof.wallNS)
		rootSelf += float64(o.prof.selfNS["op"])
		if share := 1 - float64(o.prof.selfNS["op"])/float64(o.prof.wallNS); share < worst {
			worst = share
		}
	}
	if worst < 0.95 {
		r.problem("layer and glue spans cover only %.2f%% of one operation's wall time, want >= 95%%", 100*worst)
	}
	selfNS := func(o tracedOp, name string) int64 {
		if name == spanClients {
			return o.prof.totalNS[name]
		}
		return o.prof.selfNS[name]
	}
	for _, l := range []struct {
		prefix, span string
		alloc, warm  bool
	}{
		{"parser", spanParser, true, false}, {"pta.pre", spanPre, true, false}, {"fpg", spanFPG, true, false},
		{"core", spanCore, true, false}, {"pta.main", spanMain, true, false}, {"clients", spanClients, true, false},
		{"delta", spanDelta, false, true}, {"pta.warm", spanWarm, false, true}, {"cache.load", spanCacheLoad, false, false},
	} {
		if l.warm && !warmRun {
			continue
		}
		var per []float64
		var total, alloc float64
		for _, o := range ops {
			v := float64(selfNS(o, l.span))
			per = append(per, v/1e6)
			total += v
			if l.span == spanClients {
				alloc += float64(o.prof.totalAlloc[l.span])
			} else {
				alloc += float64(o.prof.selfAlloc[l.span])
			}
		}
		r.set(l.prefix+".self_ms", median(per)*k, "ms")
		if _, ok := r.metrics[l.prefix+".share"]; ok {
			r.set(l.prefix+".share", total/wall, "ratio")
		}
		if l.alloc {
			r.set(l.prefix+".alloc_mb", alloc/float64(len(ops))/(1<<20), "MB")
		}
	}
	for name, sp := range map[string]string{
		"clients.escape_ms": spanEscape, "clients.nullness_ms": spanNullness,
		"clients.taint_ms": spanTaint, "clients.dispatch_ms": spanDispatch,
	} {
		r.set(name, medianOf(ops, func(o tracedOp) float64 { return float64(o.prof.selfNS[sp]) / 1e6 })*k, "ms")
	}

	// Work counts, from the layers' return values.
	var parsedBytes, parserNS float64
	for _, o := range ops {
		parsedBytes += float64(o.parsedBytes)
		parserNS += float64(o.prof.selfNS[spanParser])
	}
	if parserNS > 0 {
		r.set("parser.mb_per_s", parsedBytes/(1<<20)/(parserNS/1e9)/k, "MB/s")
	}
	cold := func(f func(b *buildCounts) float64) float64 {
		return meanOf(ops, func(o tracedOp) (float64, bool) {
			if o.build == nil || !o.build.preRun {
				return 0, false
			}
			return f(o.build), true
		})
	}
	built := func(f func(b *buildCounts) float64) float64 {
		return meanOf(ops, func(o tracedOp) (float64, bool) {
			if o.build == nil {
				return 0, false
			}
			return f(o.build), true
		})
	}
	warm := func(f func(b *buildCounts) float64) float64 {
		return meanOf(ops, func(o tracedOp) (float64, bool) {
			if o.build == nil || o.build.inc == nil {
				return 0, false
			}
			return f(o.build), true
		})
	}
	analyzed := func(f func(a *analyzeCounts) float64) float64 {
		return meanOf(ops, func(o tracedOp) (float64, bool) {
			if o.main == nil {
				return 0, false
			}
			return f(o.main), true
		})
	}
	r.set("pta.pre.propagated_bits", cold(func(b *buildCounts) float64 { return float64(b.pre.PropagatedBits) }), "count")
	r.set("pta.pre.nodes", cold(func(b *buildCounts) float64 { return float64(b.pre.Nodes) }), "count")
	r.set("pta.pre.collapsed_nodes", cold(func(b *buildCounts) float64 { return float64(b.pre.CollapsedNodes) }), "count")
	r.set("fpg.field_facts", built(func(b *buildCounts) float64 { return float64(b.fieldFacts) }), "count")
	r.set("core.merged_objects", built(func(b *buildCounts) float64 { return float64(b.core.NumMerged) }), "count")
	r.set("core.dfa_states", built(func(b *buildCounts) float64 { return float64(b.core.DFAStates) }), "count")
	if s := built(func(b *buildCounts) float64 { return float64(b.core.SumDFAStates) }); s > 0 {
		r.set("core.dfa_sharing", r.metrics["core.dfa_states"].Value/s, "ratio")
	}
	if warmRun {
		reused := built(func(b *buildCounts) float64 { return float64(b.core.ReusedGroups) })
		if all := reused + built(func(b *buildCounts) float64 { return float64(b.core.RemergedGroups) }); all > 0 {
			r.set("core.reuse_share", reused/all, "ratio")
		}
		r.set("delta.changed_methods", warm(func(b *buildCounts) float64 { return float64(len(b.diff.Changed)) }), "count")
		r.set("delta.warm_share", warm(func(b *buildCounts) float64 { return b2f(b.inc.Used) }), "ratio")
		r.set("pta.warm.seeded_facts", warm(func(b *buildCounts) float64 { return float64(b.inc.SeededFacts) }), "count")
		r.set("pta.warm.dirty_methods", warm(func(b *buildCounts) float64 { return float64(b.inc.DirtyMethods) }), "count")
	}
	r.set("pta.main.propagated_bits", analyzed(func(a *analyzeCounts) float64 { return float64(a.main.PropagatedBits) }), "count")
	r.set("pta.main.cs_objects", analyzed(func(a *analyzeCounts) float64 { return float64(a.csObjects) }), "count")

	if p := median(plainMS); p > 0 {
		r.set("trace.overhead_share", median(tracedMS)/p-1, "ratio")
	}
	share := (wall - rootSelf) / wall
	r.set("trace.stage_sum_share", share, "ratio")
	r.note("traced operations %d; layer and glue spans cover %.2f%% of their wall time (%.2f%% for the worst one)", len(ops), 100*share, 100*worst)
}

// serverLayer records the daemon's per-layer metrics from the traced
// HTTP operations, times at reference speed.
func (r *runResult) serverLayer(times []serverTimes) {
	if len(times) == 0 {
		return
	}
	k := r.speed.scale()
	pick := func(f func(serverTimes) float64) float64 {
		xs := make([]float64, len(times))
		for i, t := range times {
			xs[i] = f(t)
		}
		return median(xs) * k
	}
	r.set("server.submit_ms", pick(func(t serverTimes) float64 { return t.submitMS }), "ms")
	r.set("server.queue_wait_ms", pick(func(t serverTimes) float64 { return t.queueMS }), "ms")
	r.set("server.run_ms", pick(func(t serverTimes) float64 { return t.runMS }), "ms")
	r.set("server.poll_ms", pick(func(t serverTimes) float64 { return t.pollMS }), "ms")
	hits := 0.0
	for _, t := range times {
		hits += b2f(t.cacheHit)
	}
	r.set("server.cache_hit_share", hits/float64(len(times)), "ratio")
}

func medianOf(ops []tracedOp, f func(tracedOp) float64) float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = f(o)
	}
	return median(xs)
}

// meanOf averages f over the operations for which it reports a value.
func meanOf(ops []tracedOp, f func(tracedOp) (float64, bool)) float64 {
	var total, n float64
	for _, o := range ops {
		if v, ok := f(o); ok {
			total += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / n
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
