package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"mahjong/internal/lang"
	"mahjong/internal/parser"
)

// absCache is the abstraction cache: it maps the content hash of a
// program's canonical IR, which cacheKey streams into SHA-256 without
// building the text, to the persisted form of its Mahjong abstraction
// (the core Save/LoadMOM JSON). The persisted form — not the in-memory
// Abstraction — is what must be cached, because a MOM is keyed by
// *lang.AllocSite pointers of one particular Program value; a later
// submission of identical IR parses a fresh Program and rebinds the
// classes by stable site label via LoadAbstraction.
//
// Fills are single-flight: concurrent requests for the same key wait
// for the first filler instead of building the same abstraction twice,
// so of two parallel submissions of one program exactly one performs
// the merge. Entries are evicted LRU once capacity is exceeded.
type absCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	lru     *list.List // front = most recently used; values are *cacheEntry
}

type cacheEntry struct {
	key    string
	ready  chan struct{} // closed once the fill attempt finished
	data   []byte        // valid iff filled; written before ready closes
	filled bool
	elem   *list.Element
}

func newAbsCache(capacity int) *absCache {
	return &absCache{
		cap:     capacity,
		entries: make(map[string]*cacheEntry),
		lru:     list.New(),
	}
}

// cacheKey returns the cache key for a program: the hex SHA-256 of its
// canonical IR text (parser.Print), streamed into the hash so the text
// is never built.
func cacheKey(p *lang.Program) string {
	h := sha256.New()
	_ = parser.WriteProgram(h, p) // hash.Hash's Write never returns an error
	return hex.EncodeToString(h.Sum(nil))
}

// len returns the number of cached (or in-flight) entries.
func (c *absCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// getOrFill returns the persisted abstraction for key. On a miss it
// runs fill exactly once (per concurrent wave) and caches its output;
// concurrent callers block on the filler — or on ctx — and report a
// hit. A failed fill is not cached: the error propagates to the filler
// and waiters retry, each wave electing a new filler.
func (c *absCache) getOrFill(ctx context.Context, key string, fill func() ([]byte, error)) (data []byte, hit bool, err error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			select {
			case <-e.ready:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if e.filled { // published before ready closed
				return e.data, true, nil
			}
			continue // the filler failed and removed the entry; re-elect
		}
		e := &cacheEntry{key: key, ready: make(chan struct{})}
		e.elem = c.lru.PushFront(e)
		c.entries[key] = e
		c.mu.Unlock()

		data, err = fill()
		c.mu.Lock()
		if err != nil {
			delete(c.entries, key)
			c.lru.Remove(e.elem)
			c.mu.Unlock()
			close(e.ready)
			return nil, false, err
		}
		e.data = data
		e.filled = true
		c.evictLocked()
		c.mu.Unlock()
		close(e.ready)
		return data, false, nil
	}
}

// quarantine evicts a filled entry whose bytes failed to rebind.
// Corruption is sticky — serving the entry again would fail every
// future hit — so the caller drops it and rebuilds from scratch.
// In-flight fills are left alone. Reports whether an entry was dropped.
func (c *absCache) quarantine(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.filled {
		return false
	}
	delete(c.entries, key)
	c.lru.Remove(e.elem)
	return true
}

// evictLocked drops least-recently-used filled entries until the cache
// fits its capacity. In-flight fills are never evicted.
func (c *absCache) evictLocked() {
	for c.cap > 0 && len(c.entries) > c.cap {
		var victim *cacheEntry
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*cacheEntry); e.filled {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victim.key)
		c.lru.Remove(victim.elem)
	}
}
