package pta

import (
	"testing"
	"testing/quick"
)

func TestContextInterning(t *testing.T) {
	tbl := NewContextTable()
	e1, e2 := new(int), new(int)
	c1 := tbl.Push(tbl.Empty(), e1, 2)
	c2 := tbl.Push(tbl.Empty(), e1, 2)
	if c1 != c2 {
		t.Fatal("equal contexts not interned to same pointer")
	}
	c3 := tbl.Push(c1, e2, 2)
	c4 := tbl.Push(c2, e2, 2)
	if c3 != c4 {
		t.Fatal("two-element contexts not interned")
	}
	if c3 == c1 {
		t.Fatal("distinct contexts interned together")
	}
	if c3.Depth() != 2 {
		t.Fatalf("depth=%d want 2", c3.Depth())
	}
}

func TestContextTruncationOnPush(t *testing.T) {
	tbl := NewContextTable()
	es := []*int{new(int), new(int), new(int), new(int)}
	c := tbl.Empty()
	for _, e := range es {
		c = tbl.Push(c, e, 2)
	}
	// Only the newest 2 elements survive.
	elems := c.Elements()
	if len(elems) != 2 || elems[0] != es[2] || elems[1] != es[3] {
		t.Fatalf("elements=%v want [es2 es3]", elems)
	}
}

func TestPushZeroK(t *testing.T) {
	tbl := NewContextTable()
	c := tbl.Push(tbl.Empty(), new(int), 0)
	if c != tbl.Empty() {
		t.Fatal("Push with k=0 should yield the empty context")
	}
}

func TestTruncate(t *testing.T) {
	tbl := NewContextTable()
	es := []*int{new(int), new(int), new(int)}
	c := tbl.Empty()
	for _, e := range es {
		c = tbl.Push(c, e, 5)
	}
	if got := tbl.Truncate(c, 5); got != c {
		t.Fatal("truncate to larger k must be identity")
	}
	t1 := tbl.Truncate(c, 1)
	if t1.Depth() != 1 || t1.Elements()[0] != es[2] {
		t.Fatalf("Truncate(1) kept %v", t1.Elements())
	}
	if tbl.Truncate(c, 0) != tbl.Empty() {
		t.Fatal("Truncate(0) != empty")
	}
	// Truncation of equal suffixes interns to the same context.
	c2 := tbl.Push(tbl.Push(tbl.Empty(), new(int), 5), es[2], 5)
	if tbl.Truncate(c2, 1) != t1 {
		t.Fatal("suffix contexts should be interned together")
	}
}

func TestContextString(t *testing.T) {
	tbl := NewContextTable()
	if s := tbl.Empty().String(); s != "[]" {
		t.Fatalf("empty=%q", s)
	}
	var nilCtx *Context
	if s := nilCtx.String(); s != "[]" {
		t.Fatalf("nil=%q", s)
	}
	c := tbl.Push(tbl.Empty(), "a", 3)
	c = tbl.Push(c, "b", 3)
	if s := c.String(); s != "[a, b]" {
		t.Fatalf("ctx=%q", s)
	}
}

// TestQuickPushKeepsNewestK: pushing any element sequence with limit k
// always yields the newest k elements in order.
func TestQuickPushKeepsNewestK(t *testing.T) {
	f := func(raw []uint8, k8 uint8) bool {
		k := int(k8%4) + 1
		tbl := NewContextTable()
		elems := make([]any, len(raw))
		pool := map[uint8]*int{}
		for i, r := range raw {
			if pool[r] == nil {
				pool[r] = new(int)
			}
			elems[i] = pool[r]
		}
		c := tbl.Empty()
		for _, e := range elems {
			c = tbl.Push(c, e, k)
		}
		want := elems
		if len(want) > k {
			want = want[len(want)-k:]
		}
		got := c.Elements()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPushAllocFree: re-deriving a context that is already interned,
// by Push or by Truncate, allocates nothing.
func TestPushAllocFree(t *testing.T) {
	tbl := NewContextTable()
	es := []*int{new(int), new(int), new(int), new(int)}
	c := tbl.Empty()
	for _, e := range es {
		c = tbl.Push(c, e, 4)
	}
	elem := new(int)
	for k := 1; k <= 3; k++ {
		want := tbl.Push(c, elem, k)
		trunc := tbl.Truncate(c, k)
		if want.Depth() != k || trunc.Depth() != k {
			t.Fatalf("k=%d: Push depth %d, Truncate depth %d", k, want.Depth(), trunc.Depth())
		}
		allocs := testing.AllocsPerRun(100, func() {
			if tbl.Push(c, elem, k) != want || tbl.Truncate(c, k) != trunc {
				t.Fatal("re-derived context not interned to the same pointer")
			}
		})
		if allocs != 0 {
			t.Errorf("k=%d: %v allocations per re-derivation, want 0", k, allocs)
		}
	}
}
