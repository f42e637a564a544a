// Package bitset provides sparse, growable bit sets used to represent
// points-to sets over densely numbered abstract objects.
//
// The hot loop of a subset-based points-to analysis is repeated
// union-with-difference: propagate the part of a source set that the
// destination has not seen yet. Set is tuned for that pattern: it stores
// 64-bit words indexed from bit 0 and offers UnionDiff, which unions src
// into dst and simultaneously collects the newly added bits.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a growable bit set. The zero value is an empty set ready to use.
type Set struct {
	words []uint64
	count int // cached population count
}

// New returns an empty set with capacity hint n bits.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, 0, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits set.
func (s *Set) Len() int { return s.count }

// Words returns the number of 64-bit words backing the set — the
// quantity resource budgets meter, as growth, to bound points-to memory.
func (s *Set) Words() int { return len(s.words) }

// IsEmpty reports whether no bits are set.
func (s *Set) IsEmpty() bool { return s.count == 0 }

// Contains reports whether bit i is set. Negative i is always false.
func (s *Set) Contains(i int) bool {
	if i < 0 {
		return false
	}
	w := i / wordBits
	if w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<(uint(i)%wordBits)) != 0
}

func (s *Set) grow(w int) {
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
}

// Add sets bit i and reports whether the set changed.
func (s *Set) Add(i int) bool {
	if i < 0 {
		panic("bitset: negative bit " + strconv.Itoa(i))
	}
	w, b := i/wordBits, uint64(1)<<(uint(i)%wordBits)
	s.grow(w)
	if s.words[w]&b != 0 {
		return false
	}
	s.words[w] |= b
	s.count++
	return true
}

// Remove clears bit i and reports whether the set changed.
func (s *Set) Remove(i int) bool {
	if i < 0 {
		return false
	}
	w := i / wordBits
	if w >= len(s.words) {
		return false
	}
	b := uint64(1) << (uint(i) % wordBits)
	if s.words[w]&b == 0 {
		return false
	}
	s.words[w] &^= b
	s.count--
	return true
}

// Clear removes all bits, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.count = 0
}

// Clone returns a copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), count: s.count}
	copy(c.words, s.words)
	return c
}

// Union adds every bit of other into s and reports whether s changed.
func (s *Set) Union(other *Set) bool {
	if other == nil || other.count == 0 {
		return false
	}
	s.grow(len(other.words) - 1)
	changed := false
	for i, w := range other.words {
		old := s.words[i]
		nw := old | w
		if nw != old {
			s.words[i] = nw
			s.count += bits.OnesCount64(nw) - bits.OnesCount64(old)
			changed = true
		}
	}
	return changed
}

// UnionDiff unions src into s and returns a set holding exactly the bits
// that were newly added to s (src − old s). It returns nil when nothing
// was added, so callers can cheaply skip propagation.
func (s *Set) UnionDiff(src *Set) *Set {
	if src == nil || src.count == 0 {
		return nil
	}
	s.grow(len(src.words) - 1)
	var diff *Set
	for i, w := range src.words {
		old := s.words[i]
		add := w &^ old
		if add == 0 {
			continue
		}
		if diff == nil {
			diff = &Set{words: make([]uint64, len(src.words))}
		}
		diff.words[i] = add
		diff.count += bits.OnesCount64(add)
		s.words[i] = old | add
		s.count += bits.OnesCount64(add)
	}
	return diff
}

// UnionInto unions src into s like UnionDiff, but instead of allocating
// a fresh difference set it adds the newly inserted bits to diff (which
// must be non-nil) and returns how many bits were added. It is the
// allocation-free propagation primitive of the points-to solver: the
// destination's pending delta doubles as the diff accumulator.
func (s *Set) UnionInto(src, diff *Set) int {
	if src == nil || src.count == 0 {
		return 0
	}
	s.grow(len(src.words) - 1)
	added := 0
	for i, w := range src.words {
		add := w &^ s.words[i]
		if add == 0 {
			continue
		}
		s.words[i] |= add
		diff.grow(i)
		old := diff.words[i]
		diff.words[i] = old | add
		diff.count += bits.OnesCount64(old|add) - bits.OnesCount64(old)
		added += bits.OnesCount64(add)
	}
	s.count += added
	return added
}

// AndWith intersects s with other in place (s &= other) and reports
// whether s changed. A nil other clears s.
func (s *Set) AndWith(other *Set) bool {
	if s.count == 0 {
		return false
	}
	if other == nil {
		s.Clear()
		return true
	}
	changed := false
	for i, w := range s.words {
		var ow uint64
		if i < len(other.words) {
			ow = other.words[i]
		}
		nw := w & ow
		if nw != w {
			s.words[i] = nw
			s.count -= bits.OnesCount64(w) - bits.OnesCount64(nw)
			changed = true
		}
	}
	return changed
}

// IntersectInto sets dst = a ∩ b, reusing dst's backing storage, and
// returns dst. A nil dst allocates a fresh set. dst must not alias a or
// b. The word loop replaces the per-bit membership tests the solver's
// cast/catch filtering would otherwise perform.
func IntersectInto(dst, a, b *Set) *Set {
	if dst == nil {
		dst = &Set{}
	}
	n := min(len(a.words), len(b.words))
	dst.grow(n - 1)
	count := 0
	for i := 0; i < n; i++ {
		w := a.words[i] & b.words[i]
		dst.words[i] = w
		count += bits.OnesCount64(w)
	}
	for i := n; i < len(dst.words); i++ {
		dst.words[i] = 0
	}
	dst.count = count
	return dst
}

// Intersects reports whether s and other share at least one bit.
func (s *Set) Intersects(other *Set) bool {
	if other == nil {
		return false
	}
	n := min(len(s.words), len(other.words))
	for i := 0; i < n; i++ {
		if s.words[i]&other.words[i] != 0 {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every bit of other is also in s.
func (s *Set) ContainsAll(other *Set) bool {
	if other == nil {
		return true
	}
	for i, w := range other.words {
		var sw uint64
		if i < len(s.words) {
			sw = s.words[i]
		}
		if w&^sw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and other contain exactly the same bits.
func (s *Set) Equal(other *Set) bool {
	if other == nil {
		return s.count == 0
	}
	if s.count != other.count {
		return false
	}
	n := max(len(s.words), len(other.words))
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s.words) {
			a = s.words[i]
		}
		if i < len(other.words) {
			b = other.words[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// ForEach calls fn for each set bit in ascending order. If fn returns
// false iteration stops early.
func (s *Set) ForEach(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + b) {
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

// Min returns the smallest set bit, or -1 when empty.
func (s *Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
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
