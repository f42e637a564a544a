package pta

// intRing is the solver's worklist: an index-based FIFO ring over node
// ids. The previous implementation resliced a []int (`wl = wl[1:]`),
// which both pinned the consumed prefix for the life of the run and
// re-allocated on every append-past-capacity; the ring reuses one
// power-of-two backing array and is allocation-free in steady state.
// Pop order is identical to the old FIFO, keeping runs deterministic.
type intRing struct {
	buf  []int32
	head int // index of the oldest element
	n    int // number of queued elements
	peak int // high-water mark, reported via Stats
}

// push appends id at the tail, doubling the backing array when full.
func (r *intRing) push(id int) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = int32(id)
	r.n++
	if r.n > r.peak {
		r.peak = r.n
	}
}

// pop removes and returns the oldest element; ok is false when empty.
func (r *intRing) pop() (id int, ok bool) {
	if r.n == 0 {
		return 0, false
	}
	id = int(r.buf[r.head])
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return id, true
}

// grow doubles capacity (min 64, always a power of two) and linearizes
// the queued elements so head/tail arithmetic stays a mask.
func (r *intRing) grow() {
	newCap := len(r.buf) * 2
	if newCap < 64 {
		newCap = 64
	}
	buf := make([]int32, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
