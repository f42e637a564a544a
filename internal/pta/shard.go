package pta

import (
	"runtime"
	"sync/atomic"
	"time"

	"mahjong/internal/bitset"
	"mahjong/internal/failure"
	"mahjong/internal/faultinject"
	"mahjong/internal/lang"
	"mahjong/internal/trace"
)

// This file holds the per-shard machinery of the parallel engine: the
// lock-free SPSC delta queues, the sticky greedy partitioner, and the
// worker loop. The phase orchestration lives in parallel.go.

// shardMsg is one cross-shard points-to delta. set is owned by the
// message (cloned by the sender from a sender-local pool, adopted into
// the receiver's pool after application — sets never travel back).
// When targets is nil the delta applies to the single node `to`;
// otherwise it applies to every node in targets (one unfiltered source
// delta fanned out to all of a shard's destinations in one message).
type shardMsg struct {
	set     *bitset.Set
	to      int32
	targets []int32
}

const spscChunkLen = 128

// spscChunk is one fixed-size segment of an spsc queue. Chunks are
// linked through an atomic pointer: the producer publishes a new chunk
// before publishing the first message stored in it, so the consumer
// always observes the link before it needs to follow it.
type spscChunk struct {
	next atomic.Pointer[spscChunk]
	buf  [spscChunkLen]shardMsg
}

// spsc is a single-producer single-consumer unbounded queue of
// shardMsgs. Synchronization is a single atomic counter: the producer
// writes a slot and then increments count (the atomic add is the
// release that publishes the slot), the consumer observes count > 0
// (acquire) and then reads the slot. Each side keeps its own cursor in
// plain fields only it touches.
type spsc struct {
	count atomic.Int64
	_     [7]int64 // keep the producer/consumer cursors off the counter's cache line

	// consumer-only cursor
	head    *spscChunk
	headIdx int
	_       [6]int64

	// producer-only cursor
	tail    *spscChunk
	tailIdx int
}

func newSPSC() *spsc {
	c := &spscChunk{}
	return &spsc{head: c, tail: c}
}

// push appends m; called only by the producing worker.
func (q *spsc) push(m shardMsg) {
	if q.tailIdx == spscChunkLen {
		nc := &spscChunk{}
		q.tail.next.Store(nc)
		q.tail = nc
		q.tailIdx = 0
	}
	q.tail.buf[q.tailIdx] = m
	q.tailIdx++
	q.count.Add(1)
}

// pop removes the oldest message; called only by the consuming worker
// (or by the coordinator after all workers have stopped).
func (q *spsc) pop() (shardMsg, bool) {
	if q.count.Load() == 0 {
		return shardMsg{}, false
	}
	if q.headIdx == spscChunkLen {
		q.head = q.head.next.Load()
		q.headIdx = 0
	}
	m := q.head.buf[q.headIdx]
	q.head.buf[q.headIdx] = shardMsg{} // drop set/slice references for GC
	q.headIdx++
	q.count.Add(-1)
	return m, true
}

// shardState is one propagation worker: a shard of nodes it exclusively
// owns, a private worklist ring over those nodes, one inbound SPSC
// queue per peer, and private set/scratch pools so the hot path
// allocates nothing and shares nothing mutable.
//
//lint:shard-worker its methods and goroutine bodies are the in-phase call tree the shardowner analyzer polices
type shardState struct {
	eng *parEngine
	id  int

	ring intRing
	in   []*spsc // in[w] carries messages from worker w; in[id] is nil

	free    []*bitset.Set
	scratch bitset.Set

	// fired collects, per processed node, the union of deltas whose
	// var-site reactions (loads/stores/invokes — all graph growth) are
	// deferred to the sequential coordinator at phase end.
	fired map[int32]*bitset.Set //lint:adopts the drain barrier owns and releases stored sets

	// remoteTgts[w] accumulates, during one node's fan-out, the
	// destinations owned by worker w that the unfiltered delta must
	// reach; flushed as one message per destination shard.
	remoteTgts [][]int32

	idle atomic.Int32
	_    [7]int64 // idle is scanned by the detector; pad it away from the hot fields below

	// worker-local counters, folded into solver stats at phase end
	work           int64
	propagatedBits int64
	maskHits       int64
	rangeHits      int64
	sent           int64
	polls          int
}

// grabSet returns an empty set from the worker's private pool.
func (w *shardState) grabSet() *bitset.Set {
	if n := len(w.free); n > 0 {
		p := w.free[n-1]
		w.free = w.free[:n-1]
		return p
	}
	return &bitset.Set{}
}

func (w *shardState) releaseSet(p *bitset.Set) {
	if p == nil {
		return
	}
	p.Clear()
	w.free = append(w.free, p)
}

// run is the worker loop for one parallel phase. It alternates draining
// inbound queues with bounded batches of local propagation, publishes
// an idle flag when it finds neither, and exits when the coordinator's
// termination detector (or a sibling's failure) sets stopped. Any panic
// — injected fault, budget sentinel, real bug — is recorded with the
// engine and stops the phase; the coordinator re-raises it after
// folding stats, so a dying worker degrades the run instead of
// deadlocking termination.
func (w *shardState) run(phaseSpan trace.Span) {
	defer func() {
		if r := recover(); r != nil {
			w.eng.recordFailure(r)
		}
	}()
	wsp := phaseSpan.Ctx().Start(faultinject.StageShardSolve)
	wsp.Worker(w.id)
	defer wsp.CloseAborted()
	if err := faultinject.Fire(faultinject.StageShardSolve); err != nil {
		// Tag the injected error with this seam before it unwinds through
		// the coordinator, so the failure names the worker stage rather
		// than the outer pta.solve guard.
		panic(failure.AsInternal(faultinject.StageShardSolve, err))
	}
	idleSpins := 0
	for {
		if w.eng.stopped.Load() {
			break
		}
		progress := false
		for _, q := range w.in {
			if q == nil {
				continue
			}
			for {
				m, ok := q.pop()
				if !ok {
					break
				}
				w.idle.Store(0)
				w.apply(m)
				progress = true
			}
		}
		// A bounded batch keeps the inbound queues fresh: peers block on
		// nothing, but their rings grow if we never service our queues.
		for i := 0; i < 64; i++ {
			id, ok := w.ring.pop()
			if !ok {
				break
			}
			w.idle.Store(0)
			w.process(id)
			progress = true
		}
		if progress {
			idleSpins = 0
			continue
		}
		// No local work and no inbound messages: publish idleness for the
		// termination detector, then back off. Ordering matters — a
		// message that lands after our queue scan but before the Store is
		// still in flight (sent > recv), so the detector cannot
		// terminate on our stale idle flag.
		w.idle.Store(1)
		idleSpins++
		if idleSpins < 8 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
	wsp.Add("propagated_bits", w.propagatedBits)
	wsp.Add("sent_msgs", w.sent)
	wsp.End()
}

// apply merges one inbound delta into its target nodes (all owned by
// this worker) and adopts the message's set into the local pool.
func (w *shardState) apply(m shardMsg) {
	if m.targets == nil {
		w.localAddPts(int(m.to), m.set)
	} else {
		for _, t := range m.targets {
			w.localAddPts(int(t), m.set)
		}
	}
	w.releaseSet(m.set)
	w.eng.recv.Add(1)
}

// process propagates one owned node's pending delta across its
// (frozen) successor edges, routing cross-shard destinations through
// the SPSC queues, and stashes the delta for deferred var-site firing
// when the node carries statement sites.
func (w *shardState) process(id int) {
	e := w.eng
	s := e.s
	s.queued[id] = false
	delta := s.pending[id]
	s.pending[id] = nil
	if delta == nil || delta.IsEmpty() {
		w.releaseSet(delta)
		return
	}
	w.chargeWork(int64(delta.Len()))
	w.propagatedBits += int64(delta.Len())
	succ := s.nodes[id].succ
	for _, ed := range succ {
		t := int(e.flat[ed.to])
		dest := int(e.shardOf[t])
		if ed.filter == nil {
			if dest == w.id {
				w.localAddPts(t, delta)
			} else {
				w.remoteTgts[dest] = append(w.remoteTgts[dest], int32(t))
			}
			continue
		}
		fd := w.filtered(delta, ed.filter)
		if fd == nil || fd.IsEmpty() {
			continue
		}
		if dest == w.id {
			w.localAddPts(t, fd)
		} else {
			set := w.grabSet()
			set.Union(fd)
			w.send(dest, shardMsg{set: set, to: int32(t)})
		}
	}
	for dest, tgts := range w.remoteTgts {
		if len(tgts) == 0 {
			continue
		}
		set := w.grabSet()
		set.Union(delta)
		w.send(dest, shardMsg{set: set, targets: append([]int32(nil), tgts...)})
		w.remoteTgts[dest] = tgts[:0]
	}
	if e.siteful[id] {
		// Var-site reactions grow the graph; defer them. The delta moves
		// into the fired map (no clone) — ownership transfers, so it must
		// not be released here.
		if f := w.fired[int32(id)]; f != nil {
			f.Union(delta)
		} else {
			w.fired[int32(id)] = delta
			return
		}
	}
	w.releaseSet(delta)
}

// localAddPts is addPts restricted to nodes this worker owns: it may
// touch pts/pending/queued only at indices whose shard is w.id, which
// is what makes the unsynchronized element writes race-free.
func (w *shardState) localAddPts(t int, set *bitset.Set) {
	s := w.eng.s
	p := s.pending[t]
	fresh := p == nil
	if fresh {
		p = w.grabSet()
	}
	wordsBefore := s.nodes[t].pts.Words()
	if s.nodes[t].pts.UnionInto(set, p) == 0 {
		if fresh {
			w.releaseSet(p)
		}
		return
	}
	if fresh {
		s.pending[t] = p
	}
	if !s.queued[t] {
		s.queued[t] = true
		w.ring.push(t)
	}
	w.chargeWords(s.nodes[t].pts.Words() - wordsBefore)
}

// send routes a message to dest's inbound queue from this worker. The
// sent counter increments before the push so an in-flight message is
// always visible to the termination detector as sent > recv.
func (w *shardState) send(dest int, m shardMsg) {
	w.eng.sent.Add(1)
	w.sent++
	w.eng.shards[dest].in[w.id].push(m)
}

// filtered is the worker-side filter: identical semantics to
// solver.filtered, but reading the coordinator-prepared masks without
// extending them and using worker-private scratch.
func (w *shardState) filtered(delta *bitset.Set, filter *lang.Class) *bitset.Set {
	s := w.eng.s
	if s.ren != nil && s.tailObjs == 0 {
		if sp, ok := s.ren.span(filter); ok {
			w.rangeHits++
			if delta.OnesInRange(sp.lo, sp.hi) == delta.Len() {
				return delta //lint:allow bitsetalias documented borrow passthrough: the delta lies entirely inside the filter's ID range, so the filtered set IS the input
			}
			return bitset.IntersectRangeInto(&w.scratch, delta, sp.lo, sp.hi)
		}
	}
	w.maskHits++
	m := s.masks[filter.ID]
	return bitset.IntersectInto(&w.scratch, delta, &m.set)
}

// chargeWork mirrors solver.chargeWork for the parallel phase: work
// accrues to a shared atomic checked against the budget, the meter is
// charged directly (it is internally synchronized), and ctx/deadline
// are polled periodically. All aborts unwind by sentinel panic, which
// the worker's recover hands to the coordinator.
func (w *shardState) chargeWork(units int64) {
	e := w.eng
	s := e.s
	w.work += units
	total := e.parWork.Add(units)
	if s.opts.Budget.Work > 0 && e.baseWork+total > s.opts.Budget.Work {
		panic(errBudgetSentinel)
	}
	if err := s.meter.AddFacts(units); err != nil {
		e.recordMeterErr(err)
		panic(errMeterSentinel)
	}
	w.polls++
	if w.polls&255 == 0 {
		if s.hasTimeout && time.Now().After(s.deadline) {
			panic(errBudgetSentinel)
		}
		if s.ctx != nil && s.ctx.Err() != nil {
			panic(errCancelSentinel)
		}
	}
}

func (w *shardState) chargeWords(words int) {
	e := w.eng
	if e.s.meter == nil || words == 0 {
		return
	}
	if err := e.s.meter.AddWords(int64(words)); err != nil {
		e.recordMeterErr(err)
		panic(errMeterSentinel)
	}
}
