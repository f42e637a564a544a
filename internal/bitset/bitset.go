// Package bitset provides sparse, growable bit sets used to represent
// points-to sets over densely numbered abstract objects.
//
// The hot loop of a subset-based points-to analysis is repeated
// union-with-difference: propagate the part of a source set that the
// destination has not seen yet. Set is tuned for that pattern. It
// stores only the window of 64-bit words from its lowest to its highest
// non-zero word, so a set of nearby IDs costs a few words wherever the
// IDs lie, and UnionInto unions src into dst while collecting the newly
// added bits in a caller-owned delta set.
package bitset

import (
	"math"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a growable bit set. The zero value is an empty set ready to use.
//
// The set keeps the words from its lowest to its highest non-zero word:
// words[i] holds bits (off+i)*64 to (off+i)*64+63. A non-empty set's
// first and last words are non-zero, and an empty set has no words, so
// every operation works over the overlap of its operands' windows.
type Set struct {
	words []uint64
	off   int32 // word index of words[0]
	count int32 // cached population count
}

// New returns an empty set with capacity hint n bits.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, 0, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits set.
func (s *Set) Len() int { return int(s.count) }

// Words returns the number of 64-bit words in the set's window — the
// quantity resource budgets meter, as growth, to bound points-to memory.
// The window never reaches below the lowest set word, so it is at most
// the number of words a set stored from bit 0 would hold.
func (s *Set) Words() int { return len(s.words) }

// IsEmpty reports whether no bits are set.
func (s *Set) IsEmpty() bool { return s.count == 0 }

// Contains reports whether bit i is set. Negative i is always false.
func (s *Set) Contains(i int) bool {
	if i < 0 {
		return false
	}
	w := i/wordBits - int(s.off)
	if w < 0 || w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<(uint(i)%wordBits)) != 0
}

// end returns the word index one past the window.
func (s *Set) end() int { return int(s.off) + len(s.words) }

// span returns the word range [lo, hi) of s's non-zero words. For a set
// built by this package's operations it is the whole window.
func (s *Set) span() (lo, hi int) {
	i, j := 0, len(s.words)
	for i < j && s.words[i] == 0 {
		i++
	}
	for j > i && s.words[j-1] == 0 {
		j--
	}
	return int(s.off) + i, int(s.off) + j
}

// cover widens the window to include words [lo, hi), lo < hi; new words
// are zero. An empty set takes [lo, hi) as its window, reusing its
// capacity.
func (s *Set) cover(lo, hi int) {
	n := len(s.words)
	if n == 0 {
		s.off = int32(lo)
		s.words = appendZeros(s.words[:0], hi-lo)
		return
	}
	if end := s.end(); hi > end {
		s.words = appendZeros(s.words, hi-end)
	}
	if k := int(s.off) - lo; k > 0 {
		s.prepend(k)
	}
}

// appendZeros appends k zero words to w.
func appendZeros(w []uint64, k int) []uint64 {
	n := len(w)
	w = slices.Grow(w, k)[:n+k]
	clear(w[n:])
	return w
}

// prepend widens the window downward by k zero words.
func (s *Set) prepend(k int) {
	n := len(s.words)
	if n+k <= cap(s.words) {
		s.words = s.words[:n+k]
		copy(s.words[k:], s.words[:n])
		clear(s.words[:k])
	} else {
		w := make([]uint64, n+k, max(n+k, 2*cap(s.words)))
		copy(w[k:], s.words)
		s.words = w
	}
	s.off -= int32(k)
}

// Add sets bit i and reports whether the set changed. Bits must lie in
// [0, math.MaxInt32).
func (s *Set) Add(i int) bool {
	if i < 0 || i >= math.MaxInt32 {
		panic("bitset: bit out of range: " + strconv.Itoa(i))
	}
	w, b := i/wordBits, uint64(1)<<(uint(i)%wordBits)
	j := w - int(s.off)
	if j < 0 || j >= len(s.words) { // inline, not a helper: Add is on the solver's hot path
		s.cover(w, w+1)
		j = w - int(s.off)
	}
	if s.words[j]&b != 0 {
		return false
	}
	s.words[j] |= b
	s.count++
	return true
}

// orWord ors b into word w, widening the window as needed.
func (s *Set) orWord(w int, b uint64) {
	j := w - int(s.off)
	if j < 0 || j >= len(s.words) {
		s.cover(w, w+1)
		j = w - int(s.off)
	}
	old := s.words[j]
	s.words[j] = old | b
	s.count += int32(bits.OnesCount64(old|b) - bits.OnesCount64(old))
}

// Clear removes all bits. It resets the window and keeps the capacity,
// so a pooled set refills at any offset without allocating.
func (s *Set) Clear() {
	s.words = s.words[:0]
	s.off = 0
	s.count = 0
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	return &Set{words: slices.Clone(s.words), off: s.off, count: s.count}
}

// Union adds every bit of other into s and reports whether s changed.
func (s *Set) Union(other *Set) bool {
	if other == nil || other.count == 0 {
		return false
	}
	lo, hi := other.span()
	s.cover(lo, hi)
	dst := s.words[lo-int(s.off) : hi-int(s.off)]
	changed := false
	for i, w := range other.words[lo-int(other.off) : hi-int(other.off)] {
		old := dst[i]
		if nw := old | w; nw != old {
			dst[i] = nw
			s.count += int32(bits.OnesCount64(nw) - bits.OnesCount64(old))
			changed = true
		}
	}
	return changed
}

// UnionInto unions src into s, adds the newly inserted bits to diff
// (which must be non-nil and must not alias s or src) and returns how
// many bits were added. It is the allocation-free propagation primitive
// of the points-to solver: the destination's pending delta doubles as
// the diff accumulator. Only src's non-zero words are visited.
func (s *Set) UnionInto(src, diff *Set) int {
	if src == nil || src.count == 0 {
		return 0
	}
	lo, hi := src.span()
	s.cover(lo, hi)
	dst := s.words[lo-int(s.off) : hi-int(s.off)]
	added := 0
	for i, w := range src.words[lo-int(src.off) : hi-int(src.off)] {
		add := w &^ dst[i]
		if add == 0 {
			continue
		}
		dst[i] |= add
		diff.orWord(lo+i, add)
		added += bits.OnesCount64(add)
	}
	s.count += int32(added)
	return added
}

// IntersectInto sets dst = a ∩ b, reusing dst's backing storage, and
// returns dst. A nil dst allocates a fresh set. dst must not alias a or
// b. The word loop over the operands' overlap replaces the per-bit
// membership tests the solver's cast/catch filtering would otherwise
// perform.
func IntersectInto(dst, a, b *Set) *Set {
	if dst == nil {
		dst = &Set{}
	}
	lo, hi := max(int(a.off), int(b.off)), min(a.end(), b.end())
	out := dst.words[:0]
	start, last, count := 0, 0, 0
	for i := lo; i < hi; i++ {
		w := a.words[i-int(a.off)] & b.words[i-int(b.off)]
		if len(out) == 0 {
			if w == 0 {
				continue // leading zero words stay outside the window
			}
			start = i
		}
		out = append(out, w)
		if w != 0 {
			last = len(out)
			count += bits.OnesCount64(w)
		}
	}
	dst.words = out[:last]
	dst.off = int32(start)
	dst.count = int32(count)
	return dst
}

// Intersects reports whether s and other share at least one bit.
func (s *Set) Intersects(other *Set) bool {
	if other == nil {
		return false
	}
	for i, hi := max(int(s.off), int(other.off)), min(s.end(), other.end()); i < hi; i++ {
		if s.words[i-int(s.off)]&other.words[i-int(other.off)] != 0 {
			return true
		}
	}
	return false
}

// word returns word i of s, zero outside the window.
func (s *Set) word(i int) uint64 {
	if j := i - int(s.off); j >= 0 && j < len(s.words) {
		return s.words[j]
	}
	return 0
}

// Equal reports whether s and other contain exactly the same bits.
func (s *Set) Equal(other *Set) bool {
	if other == nil {
		return s.count == 0
	}
	if s.count != other.count {
		return false
	}
	for i, hi := min(int(s.off), int(other.off)), max(s.end(), other.end()); i < hi; i++ {
		if s.word(i) != other.word(i) {
			return false
		}
	}
	return true
}

// ForEach calls fn for each set bit in ascending order. If fn returns
// false iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	base := int(s.off) * wordBits
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(base + wi*wordBits + b) {
				return
			}
			w &^= 1 << uint(b)
		}
	}
}

// Slice returns the set bits in ascending order.
func (s *Set) Slice() []int {
	out := make([]int, 0, s.count)
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the set like "{1 5 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		b.WriteString(strconv.Itoa(i))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
