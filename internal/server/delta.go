package server

import (
	"container/list"
	"sync"

	"mahjong"
)

// deltaStore retains the DeltaState of recently built abstractions,
// keyed by job ID, so a later submission can name one as base_job_id
// and solve incrementally against it. States are heavyweight — each
// holds the analyzed program, the saturated pre-analysis solver, and
// the abstraction built from it — so the store is a small LRU rather
// than unbounded history: an evicted base silently demotes the delta
// job to a from-scratch build, which is always correct.
type deltaStore struct {
	mu      sync.Mutex
	cap     int // <0 = unbounded
	entries map[string]*list.Element
	lru     *list.List // front = most recently used; values are *deltaEntry
}

type deltaEntry struct {
	id string
	st *mahjong.DeltaState
}

// newDeltaStore returns a store retaining up to capacity states
// (0 = 4, negative = unbounded).
func newDeltaStore(capacity int) *deltaStore {
	if capacity == 0 {
		capacity = 4
	}
	return &deltaStore{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// put retains st under id, evicting the least recently used state when
// over capacity. A nil state is ignored.
func (d *deltaStore) put(id string, st *mahjong.DeltaState) {
	if st == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[id]; ok {
		e.Value.(*deltaEntry).st = st
		d.lru.MoveToFront(e)
		return
	}
	d.entries[id] = d.lru.PushFront(&deltaEntry{id: id, st: st})
	for d.cap > 0 && d.lru.Len() > d.cap {
		back := d.lru.Back()
		d.lru.Remove(back)
		delete(d.entries, back.Value.(*deltaEntry).id)
	}
}

// get returns the retained state for id (bumping its recency), or nil.
func (d *deltaStore) get(id string) *mahjong.DeltaState {
	if id == "" {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[id]
	if !ok {
		return nil
	}
	d.lru.MoveToFront(e)
	return e.Value.(*deltaEntry).st
}

func (d *deltaStore) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lru.Len()
}
