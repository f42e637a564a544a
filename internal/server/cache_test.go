package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mahjong/internal/parser"
	"mahjong/internal/synth"
)

// TestCacheKeyHashesPrint pins the key to the hex SHA-256 of exactly
// the text parser.Print returns, on every subject.
func TestCacheKeyHashesPrint(t *testing.T) {
	for _, profile := range synth.Profiles() {
		prog, err := synth.Generate(profile)
		if err != nil {
			t.Fatalf("%s: %v", profile.Name, err)
		}
		sum := sha256.Sum256([]byte(parser.Print(prog)))
		if got, want := cacheKey(prog), hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: cacheKey = %s, want %s", profile.Name, got, want)
		}
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := newAbsCache(8)
	var fills atomic.Int64
	release := make(chan struct{})

	const waiters = 8
	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	hits := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, hit, err := c.getOrFill(context.Background(), "k", func() ([]byte, error) {
				fills.Add(1)
				<-release // hold the fill open until all goroutines are queued
				return []byte("abs"), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i], hits[i] = data, hit
		}()
	}
	close(release)
	wg.Wait()

	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want 1", got)
	}
	misses := 0
	for i := range results {
		if string(results[i]) != "abs" {
			t.Fatalf("waiter %d got %q", i, results[i])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses, want exactly 1 (the filler)", misses)
	}
}

func TestCacheFailedFillIsNotCached(t *testing.T) {
	c := newAbsCache(8)
	boom := errors.New("boom")
	if _, _, err := c.getOrFill(context.Background(), "k", func() ([]byte, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("want fill error, got %v", err)
	}
	data, hit, err := c.getOrFill(context.Background(), "k", func() ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || hit || string(data) != "ok" {
		t.Fatalf("retry after failure: data=%q hit=%v err=%v", data, hit, err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newAbsCache(2)
	fill := func(v string) func() ([]byte, error) {
		return func() ([]byte, error) { return []byte(v), nil }
	}
	mustFill := func(key string, wantHit bool) {
		t.Helper()
		_, hit, err := c.getOrFill(context.Background(), key, fill(key))
		if err != nil {
			t.Fatal(err)
		}
		if hit != wantHit {
			t.Fatalf("key %s: hit=%v, want %v", key, hit, wantHit)
		}
	}
	mustFill("a", false)
	mustFill("b", false)
	mustFill("a", true)  // refresh a
	mustFill("c", false) // evicts b (LRU)
	if c.len() != 2 {
		t.Fatalf("cache size %d, want 2", c.len())
	}
	mustFill("a", true)
	mustFill("b", false) // b was evicted
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	c := newAbsCache(2)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		c.getOrFill(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("late"), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.getOrFill(ctx, "k", func() ([]byte, error) {
		return nil, fmt.Errorf("must not run")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled while waiting on filler, got %v", err)
	}
}
