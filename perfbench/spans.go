package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. The benchmark records it around
// the call, from outside the program; spans live in memory and are
// written out when the run ends.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the parent span, -1 for an operation root
	// StartNS and EndNS are offsets from the recorder's start.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// AllocOpen and AllocClose sample /gc/heap/allocs:bytes.
	AllocOpen  uint64 `json:"alloc_open"`
	AllocClose uint64 `json:"alloc_close"`
}

// recorder collects the spans of one goroutine. Operation roots are
// opened with begin; layer calls nest below whatever span is open.
type recorder struct {
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0} }

func (r *recorder) push(name string) {
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	r.spans = append(r.spans, span{
		Name:      name,
		Op:        r.op,
		Parent:    parent,
		AllocOpen: heapAllocs(),
		StartNS:   int64(time.Since(r.t0)),
	})
	r.stack = append(r.stack, len(r.spans)-1)
}

// pop closes the innermost open span and returns its duration.
func (r *recorder) pop() time.Duration {
	i := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[i].EndNS = int64(time.Since(r.t0))
	r.spans[i].AllocClose = heapAllocs()
	return time.Duration(r.spans[i].EndNS - r.spans[i].StartNS)
}

// begin opens the root span of operation op; end closes it.
func (r *recorder) begin(op int) {
	r.op = op
	r.push("op")
}

func (r *recorder) end() time.Duration { return r.pop() }

// layer runs fn inside a span named name.
func (r *recorder) layer(name string, fn func() error) error {
	r.push(name)
	defer r.pop()
	return fn()
}

// opProfile is one operation's wall time and, per span name, the time
// and allocation the span spent itself (its duration minus the part its
// children cover) and in total (children included).
type opProfile struct {
	wallNS     int64
	selfNS     map[string]int64
	selfAlloc  map[string]int64
	totalNS    map[string]int64
	totalAlloc map[string]int64
}

// profiles folds the recorded spans into one profile per operation.
func profiles(spans []span) map[int]opProfile {
	childNS := make([]int64, len(spans))
	childAlloc := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.EndNS - s.StartNS
			childAlloc[s.Parent] += int64(s.AllocClose - s.AllocOpen)
		}
	}
	byOp := map[int]opProfile{}
	for i, s := range spans {
		p, ok := byOp[s.Op]
		if !ok {
			p = opProfile{
				selfNS: map[string]int64{}, selfAlloc: map[string]int64{},
				totalNS: map[string]int64{}, totalAlloc: map[string]int64{},
			}
		}
		dur := s.EndNS - s.StartNS
		alloc := int64(s.AllocClose - s.AllocOpen)
		if s.Parent == -1 {
			p.wallNS += dur
		}
		p.selfNS[s.Name] += dur - childNS[i]
		p.selfAlloc[s.Name] += alloc - childAlloc[i]
		p.totalNS[s.Name] += dur
		p.totalAlloc[s.Name] += alloc
		byOp[s.Op] = p
	}
	return byOp
}

// writeTrace writes the environment stamp and every span as JSON under
// dir, returning the file's path.
func writeTrace(dir string, env envStamp, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", env.Workload, env.Seed))
	data, err := json.Marshal(struct {
		Env   envStamp `json:"env"`
		Spans []span   `json:"spans"`
	}{env, spans})
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}
