// Package pta implements a whole-program, flow-insensitive, subset-based
// points-to analysis with on-the-fly call-graph construction, in the
// style of Doop's analyses that the Mahjong paper builds on.
//
// Three axes are pluggable:
//
//   - context sensitivity (Selector): context-insensitive, k-call-site
//     (k-CFA), k-object and k-type sensitivity;
//   - heap abstraction (HeapModel): allocation-site, allocation-type and
//     the Mahjong merged-object abstraction (built by package core);
//   - budget: a deterministic cap on propagation work used to reproduce
//     the paper's "unscalable within 5 hours" cells.
package pta

import (
	"fmt"
	"strings"
)

// Context is an interned, immutable calling context: a bounded sequence
// of context elements (call sites, heap objects or classes), newest
// element first. Two equal contexts are pointer-identical, so contexts
// can be used directly as map keys.
type Context struct {
	parent *Context // context without the newest element; nil only for the empty context
	elem   any      // newest element: *lang.Invoke, *Obj or *lang.Class
	depth  int
	id     int32 // dense interning number within its table; 0 is the empty context
}

// Depth returns the number of elements in the context.
func (c *Context) Depth() int {
	if c == nil {
		return 0
	}
	return c.depth
}

// Elements returns the context's elements oldest first.
func (c *Context) Elements() []any {
	out := make([]any, c.Depth())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = c.elem
		c = c.parent
	}
	return out
}

// String renders the context like "[site#1, site#4]" (oldest first).
func (c *Context) String() string {
	if c == nil || c.depth == 0 {
		return "[]"
	}
	parts := make([]string, 0, c.depth)
	for _, e := range c.Elements() {
		parts = append(parts, fmt.Sprint(e))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

type ctxKey struct {
	parent *Context
	elem   any
}

// ContextTable interns contexts so that structural equality coincides
// with pointer equality.
type ContextTable struct {
	empty  *Context
	intern map[ctxKey]*Context
}

// NewContextTable returns a table containing only the empty context.
func NewContextTable() *ContextTable {
	return &ContextTable{
		empty:  &Context{},
		intern: make(map[ctxKey]*Context),
	}
}

// Empty returns the empty context.
func (t *ContextTable) Empty() *Context { return t.empty }

// append1 returns ctx extended with elem (no truncation).
func (t *ContextTable) append1(ctx *Context, elem any) *Context {
	k := ctxKey{ctx, elem}
	if c, ok := t.intern[k]; ok {
		return c
	}
	c := &Context{parent: ctx, elem: elem, depth: ctx.depth + 1, id: int32(len(t.intern) + 1)}
	t.intern[k] = c
	return c
}

// Push appends elem to ctx and truncates the result to its newest k
// elements. Push with k <= 0 yields the empty context.
func (t *ContextTable) Push(ctx *Context, elem any, k int) *Context {
	if k <= 0 {
		return t.empty
	}
	if ctx == nil {
		ctx = t.empty
	}
	return t.append1(t.Truncate(ctx, k-1), elem)
}

// Truncate returns the context holding only the newest k elements of
// ctx. It re-derives them oldest first through the parent chain, so it
// allocates nothing when the result is already interned.
func (t *ContextTable) Truncate(ctx *Context, k int) *Context {
	if k <= 0 {
		return t.empty
	}
	if ctx.Depth() <= k {
		return ctx
	}
	return t.append1(t.Truncate(ctx.parent, k-1), ctx.elem)
}
