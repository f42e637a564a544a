package pta

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mahjong/internal/bitset"
	"mahjong/internal/faultinject"
	"mahjong/internal/lang"
	"mahjong/internal/trace"
)

// The parallel engine: phase-alternating sharded propagation.
//
// Andersen solving interleaves two kinds of work. Propagation (pushing
// points-to deltas across existing edges) is data-parallel; graph
// growth (statement processing on var deltas, edge insertion, call
// discovery, cycle collapsing) mutates shared maps and the node slice.
// Rather than lock the growth paths, the engine alternates: the
// sequential loop runs until the worklist is wide enough to amortize a
// phase, then freezes the graph shape and fans the worklist out to N
// shard workers that do propagation only, deferring every var-site
// reaction. At phase end the deferred deltas fire sequentially, growing
// the graph and refilling the worklist for the next round.
//
// During a phase each node belongs to exactly one shard and only its
// owner writes its pts/pending/queued state ("owner writes"): local
// destinations update directly, remote destinations receive cloned
// deltas over per-pair SPSC queues. Termination is detected from
// monotone sent/recv counters plus per-worker idle flags: a message
// increments sent before it is enqueued and recv only after it is
// applied, so "sent == recv and everyone idle" (confirmed by a second
// scan) means no work exists anywhere. A worker that dies — injected
// fault, budget sentinel, real bug — records its panic and raises the
// stopped flag, which both siblings and the detector honor, so failure
// degrades the run instead of deadlocking it; the coordinator folds
// stats and re-raises the recorded value. See docs/PARALLEL.md.
type parEngine struct {
	s         *solver
	threshold int // minimum worklist length that triggers a phase

	// Phase-frozen snapshots, rebuilt by prep(). flat is the flattened
	// union-find (Find path-compresses, so workers must not call it);
	// shardOf is the sticky node->shard assignment; siteful marks nodes
	// whose deltas must be stashed for deferred var-site firing.
	flat    []int32
	shardOf []int32
	load    []int
	siteful []bool

	shards []*shardState

	// Distinct filter classes ever attached to an edge; prep extends
	// each one's mask so workers only ever read masks.
	filterSeen []bool // by Class.ID
	filterList []*lang.Class

	sent, recv atomic.Int64
	parWork    atomic.Int64
	stopped    atomic.Bool
	baseWork   int64 // s.work at phase start, for budget checks

	failMu   sync.Mutex
	failVal  any
	meterErr error
}

// defaultParThreshold is the worklist length below which a parallel
// phase costs more in goroutine churn than it wins; overridable per
// run through Options.parThreshold (tests force tiny phases with it).
const defaultParThreshold = 64

// normalizeWorkers maps Options.Parallel onto a worker count: negative
// means one per GOMAXPROCS, and anything below 2 is the sequential
// path.
func normalizeWorkers(p int) int {
	if p < 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > 64 {
		p = 64
	}
	return p
}

func newParEngine(s *solver, workers, threshold int) *parEngine {
	if threshold <= 0 {
		threshold = defaultParThreshold
	}
	e := &parEngine{
		s:         s,
		threshold: threshold,
		load:      make([]int, workers),
		shards:    make([]*shardState, workers),
	}
	for i := range e.shards {
		e.shards[i] = &shardState{
			eng:        e,
			id:         i,
			in:         make([]*spsc, workers),
			remoteTgts: make([][]int32, workers),
			fired:      make(map[int32]*bitset.Set),
		}
	}
	for i, w := range e.shards {
		for j := range w.in {
			if j != i {
				w.in[j] = newSPSC()
			}
		}
	}
	s.stats.ShardWorkers = workers
	return e
}

// trackFilter records a filter class the first time an edge carries it.
func (e *parEngine) trackFilter(cls *lang.Class) {
	for cls.ID >= len(e.filterSeen) {
		e.filterSeen = append(e.filterSeen, false)
	}
	if e.filterSeen[cls.ID] {
		return
	}
	e.filterSeen[cls.ID] = true
	e.filterList = append(e.filterList, cls)
}

// runPhase executes one parallel propagation phase. Called from the
// sequential run loop; any worker failure re-raises here so the
// sentinels reach run()'s recover and real bugs reach the stage guard.
func (e *parEngine) runPhase() {
	s := e.s
	sp := s.span.Ctx().Start(faultinject.StageShardSolve)
	defer sp.CloseAborted()
	e.prep()
	e.baseWork = s.work
	e.parWork.Store(0)
	e.sent.Store(0)
	e.recv.Store(0)
	e.stopped.Store(false)
	e.failVal = nil
	e.meterErr = nil
	for _, w := range e.shards {
		w.idle.Store(0)
	}
	var wg sync.WaitGroup
	for _, w := range e.shards {
		wg.Add(1)
		go func(w *shardState) {
			defer wg.Done()
			w.run(sp)
		}(w)
	}
	epochs := e.detect()
	wg.Wait()
	e.fold(sp, epochs)
	if fv := e.failVal; fv != nil {
		// Partial phase work is already folded and remains sound (facts
		// are monotone); residual rings/queues are abandoned exactly like
		// the sequential worklist on an abort.
		if fv == errMeterSentinel && s.meterErr == nil {
			s.meterErr = e.meterErr
		}
		e.failVal = nil
		panic(fv)
	}
	sp.End()
	// Back on one goroutine: return undelivered remainders to the
	// sequential worklist and fire the deferred var-site reactions in
	// deterministic (ascending node id) order.
	e.drain()
	e.fireSites()
}

// prep freezes the graph for a phase: flattens the union-find, extends
// every filter mask over newly interned objects, assigns shards to new
// nodes, recomputes which nodes carry statement sites, and deals the
// sequential worklist out to the owners' rings.
func (e *parEngine) prep() {
	s := e.s
	n := len(s.nodes)
	if cap(e.flat) < n {
		e.flat = make([]int32, n)
	} else {
		e.flat = e.flat[:n]
	}
	for i := 0; i < n; i++ {
		e.flat[i] = int32(s.find(i))
	}
	for _, cls := range e.filterList {
		s.mask(cls)
	}
	e.partition(n)
	if cap(e.siteful) < n {
		e.siteful = make([]bool, n)
	} else {
		e.siteful = e.siteful[:n]
	}
	for i := 0; i < n; i++ {
		e.siteful[i] = nodeHasSites(&s.nodes[i])
	}
	for {
		id, ok := s.worklist.pop()
		if !ok {
			break
		}
		if rep := int(e.flat[id]); rep != id {
			// Collapsed while queued: hand the delta to the
			// representative (which lands back on this worklist and is
			// dealt on a later iteration of this very loop).
			s.queued[id] = false
			if p := s.pending[id]; p != nil {
				s.pending[id] = nil
				s.addPts(rep, p)
				s.releaseSet(p)
			}
			continue
		}
		if p := s.pending[id]; p == nil || p.IsEmpty() {
			s.queued[id] = false
			s.pending[id] = nil
			s.releaseSet(p)
			continue
		}
		e.shards[e.shardOf[id]].ring.push(id)
	}
}

func nodeHasSites(n *node) bool {
	if vi := n.info; vi != nil && len(vi.loads)+len(vi.stores)+len(vi.invokes) > 0 {
		return true
	}
	for _, vi := range n.merged {
		if len(vi.loads)+len(vi.stores)+len(vi.invokes) > 0 {
			return true
		}
	}
	return false
}

// partition extends the sticky node->shard assignment to newly created
// nodes: a node follows its first already-assigned successor (copy
// chains cluster onto one shard, the cheap approximation of a greedy
// edge cut) unless that shard is overloaded, in which case it goes to
// the least-loaded shard. Assignments never change afterwards — the
// owner-writes discipline depends on that.
func (e *parEngine) partition(n int) {
	w := len(e.shards)
	for id := len(e.shardOf); id < n; id++ {
		best := -1
		for _, ed := range e.s.nodes[id].succ {
			if t := int(e.flat[ed.to]); t < id {
				best = int(e.shardOf[t])
				break
			}
		}
		if best >= 0 && e.load[best] > id/w+16 {
			best = -1 // affinity shard overloaded; rebalance
		}
		if best < 0 {
			best = 0
			for i := 1; i < w; i++ {
				if e.load[i] < e.load[best] {
					best = i
				}
			}
		}
		e.shardOf = append(e.shardOf, int32(best))
		e.load[best]++
	}
}

// detect is the epoch-based termination detector. Each epoch scans the
// monotone sent/recv counters and every worker's idle flag; two
// consecutive identical all-idle scans with sent == recv prove global
// quiescence (a message in flight always shows as sent > recv, and a
// worker's ring can only be non-empty while its own flag is busy). A
// failure raised by any worker stops the scan immediately — never wait
// for messages a dead worker can no longer consume.
func (e *parEngine) detect() int {
	epochs := 0
	for !e.stopped.Load() {
		epochs++
		s1, r1 := e.sent.Load(), e.recv.Load()
		if s1 == r1 && e.allIdle() {
			s2, r2 := e.sent.Load(), e.recv.Load()
			if s1 == s2 && r1 == r2 && e.allIdle() {
				e.stopped.Store(true)
				break
			}
		}
		runtime.Gosched()
	}
	return epochs
}

func (e *parEngine) allIdle() bool {
	for _, w := range e.shards {
		if w.idle.Load() == 0 {
			return false
		}
	}
	return true
}

// recordFailure stores the first panic value raised by a worker and
// stops the phase.
func (e *parEngine) recordFailure(r any) {
	e.failMu.Lock()
	if e.failVal == nil {
		e.failVal = r
	}
	e.failMu.Unlock()
	e.stopped.Store(true)
}

func (e *parEngine) recordMeterErr(err error) {
	e.failMu.Lock()
	if e.meterErr == nil {
		e.meterErr = err
	}
	e.failMu.Unlock()
}

// fold merges worker- and engine-local counters into the solver stats.
// It runs even when the phase failed, so partial work stays accounted.
func (e *parEngine) fold(sp trace.Span, epochs int) {
	s := e.s
	s.work += e.parWork.Swap(0)
	sent := e.sent.Load()
	s.stats.CrossShardDeltas += sent
	s.stats.ShardPhases++
	s.stats.TerminationEpochs += epochs
	for _, w := range e.shards {
		s.stats.PropagatedBits += w.propagatedBits
		s.stats.FilterMaskHits += w.maskHits
		s.stats.RangeFilterHits += w.rangeHits
		if w.ring.peak > s.stats.ShardWorklistPeak {
			s.stats.ShardWorklistPeak = w.ring.peak
		}
		w.propagatedBits, w.maskHits, w.rangeHits, w.sent, w.work = 0, 0, 0, 0, 0
	}
	sp.Add("cross_shard_deltas", sent)
	sp.Add("termination_epochs", int64(epochs))
}

// drain returns phase residue to the sequential structures: messages no
// worker consumed (possible only after an interrupted phase, but
// harmless to handle always) and still-queued ring entries. Premature
// termination is therefore a correctness non-event — anything missed
// re-enters the ordinary worklist.
func (e *parEngine) drain() {
	s := e.s
	for _, w := range e.shards {
		for _, q := range w.in {
			if q == nil {
				continue
			}
			for {
				m, ok := q.pop()
				if !ok {
					break
				}
				if m.targets == nil {
					s.addPts(int(m.to), m.set)
				} else {
					for _, t := range m.targets {
						s.addPts(int(t), m.set)
					}
				}
				s.releaseSet(m.set)
			}
		}
		for {
			id, ok := w.ring.pop()
			if !ok {
				break
			}
			// queued[id] is still true and pending[id] still holds the
			// delta; the sequential loop picks both up as-is.
			s.worklist.push(id)
		}
	}
}

// fireSites runs the deferred var-site reactions in ascending node id
// order — the one scheduling-dependent output of a phase made
// deterministic again before it can grow the graph.
func (e *parEngine) fireSites() {
	s := e.s
	total := 0
	for _, w := range e.shards {
		total += len(w.fired)
	}
	if total == 0 {
		return
	}
	ids := make([]int32, 0, total)
	for _, w := range e.shards {
		for id := range w.fired {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id32 := range ids {
		w := e.shards[e.shardOf[id32]]
		set := w.fired[id32]
		id := int(id32)
		if info := s.nodes[id].info; info != nil {
			s.processVarDelta(info, set)
		}
		for _, vi := range s.nodes[id].merged {
			s.processVarDelta(vi, set)
		}
		s.releaseSet(set)
	}
	for _, w := range e.shards {
		clear(w.fired)
	}
}
