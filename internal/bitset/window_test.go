package bitset

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// checkWindow verifies a set's representation: the cached count matches
// the words, an empty set has no words, and a non-empty set's first and
// last words are non-zero.
func checkWindow(s *Set) error {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	if n != int(s.count) {
		return fmt.Errorf("count %d, words hold %d bits", s.count, n)
	}
	if len(s.words) > 0 && (s.words[0] == 0 || s.words[len(s.words)-1] == 0) {
		return fmt.Errorf("window [%d, %d) has a zero edge word", s.off, s.end())
	}
	if n == 0 && len(s.words) != 0 {
		return fmt.Errorf("empty set keeps %d words", len(s.words))
	}
	return nil
}

// machine applies one operation sequence to three Sets and to three map
// references side by side. It also records which window situations the
// sequence reached, so a property test can require that it covered them.
type machine struct {
	sets [3]*Set
	refs [3]refSet
	// cleared holds, per set, the window offset it had when last
	// cleared, or -1.
	cleared [3]int

	prepends, disjointUnions, disjointIntersects, disjointTests, reuses int
}

func newMachine() *machine {
	m := &machine{}
	for i := range m.sets {
		m.sets[i], m.refs[i], m.cleared[i] = New(0), refSet{}, -1
	}
	return m
}

func disjoint(a, b *Set) bool {
	return !a.IsEmpty() && !b.IsEmpty() && (a.end() <= int(b.off) || b.end() <= int(a.off))
}

// step applies operation op to sets a, b and c (indices below 3) with
// bit id, then checks every set against its reference.
func (m *machine) step(op byte, a, b, c, id int) error {
	s, ref := m.sets[a], m.refs[a]
	off, empty := int(s.off), s.IsEmpty()
	switch op % 6 {
	case 0:
		if got, want := s.Add(id), !ref[id]; got != want {
			return fmt.Errorf("Add(%d) = %v, want %v", id, got, want)
		}
		ref[id] = true
	case 1: // s ∪= sets[b], collecting the new bits in sets[c]
		if a == b || a == c || b == c {
			return m.check()
		}
		src, diff := m.sets[b], m.sets[c]
		if disjoint(s, src) {
			m.disjointUnions++
		}
		want := 0
		for x := range m.refs[b] {
			if !ref[x] {
				ref[x] = true
				m.refs[c][x] = true
				want++
			}
		}
		if got := s.UnionInto(src, diff); got != want {
			return fmt.Errorf("UnionInto added %d, want %d", got, want)
		}
	case 2: // sets[a] = sets[b] ∩ sets[c]
		if a == b || a == c {
			return m.check()
		}
		if disjoint(m.sets[b], m.sets[c]) {
			m.disjointIntersects++
		}
		IntersectInto(s, m.sets[b], m.sets[c])
		next := refSet{}
		for x := range m.refs[b] {
			if m.refs[c][x] {
				next[x] = true
			}
		}
		m.refs[a] = next
	case 3:
		m.cleared[a] = -1
		if !empty {
			m.cleared[a] = off
		}
		s.Clear()
		m.refs[a] = refSet{}
	case 4:
		o := m.sets[b]
		if disjoint(s, o) {
			m.disjointTests++
		}
		want := false
		for x := range m.refs[b] {
			want = want || ref[x]
		}
		if got := s.Intersects(o); got != want {
			return fmt.Errorf("Intersects = %v, want %v", got, want)
		}
	case 5:
		want := len(ref) == len(m.refs[b])
		for x := range ref {
			want = want && m.refs[b][x]
		}
		if got := s.Equal(m.sets[b]); got != want {
			return fmt.Errorf("Equal = %v, want %v", got, want)
		}
	}
	if op%6 <= 1 && !empty && int(s.off) < off {
		m.prepends++
	}
	if empty && !s.IsEmpty() && m.cleared[a] >= 0 {
		if int(s.off) != m.cleared[a] {
			m.reuses++
		}
		m.cleared[a] = -1
	}
	return m.check()
}

// check compares every set with its reference.
func (m *machine) check() error {
	for i, s := range m.sets {
		if err := checkWindow(s); err != nil {
			return fmt.Errorf("set %d: %v", i, err)
		}
		want := m.refs[i].slice()
		if got := s.Slice(); !equalInts(got, want) {
			return fmt.Errorf("set %d = %v, want %v", i, got, want)
		}
		if s.Len() != len(want) {
			return fmt.Errorf("set %d: Len %d, want %d", i, s.Len(), len(want))
		}
		for _, x := range want {
			if !s.Contains(x) {
				return fmt.Errorf("set %d: Contains(%d) false", i, x)
			}
		}
		if len(want) > 0 {
			lo, hi := want[0]/wordBits, want[len(want)-1]/wordBits+1
			if int(s.off) != lo || s.end() != hi {
				return fmt.Errorf("set %d: window [%d, %d), bits span [%d, %d)", i, s.off, s.end(), lo, hi)
			}
		}
	}
	return nil
}

// TestWindowAgainstReference drives random operation sequences over IDs
// in [0, 1<<16) against the map reference. IDs cluster in a few regions
// per sequence so that windows are often disjoint, grow downward, and
// refill at a new offset after Clear; the test fails if the sequences
// never reached one of those situations.
func TestWindowAgainstReference(t *testing.T) {
	total := newMachine()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := newMachine()
		regions := []int{rng.Intn(1 << 16), rng.Intn(1 << 16), rng.Intn(1 << 16)}
		for op := 0; op < 300; op++ {
			id := regions[rng.Intn(len(regions))] - rng.Intn(700)
			if id < 0 {
				id = -id
			}
			if err := m.step(byte(rng.Intn(6)), rng.Intn(3), rng.Intn(3), rng.Intn(3), id); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
		total.prepends += m.prepends
		total.disjointUnions += m.disjointUnions
		total.disjointIntersects += m.disjointIntersects
		total.disjointTests += m.disjointTests
		total.reuses += m.reuses
	}
	for name, n := range map[string]int{
		"downward growth":                     total.prepends,
		"UnionInto over disjoint windows":     total.disjointUnions,
		"IntersectInto over disjoint windows": total.disjointIntersects,
		"Intersects over disjoint windows":    total.disjointTests,
		"refill at a new offset after Clear":  total.reuses,
	} {
		if n == 0 {
			t.Errorf("no sequence exercised %s", name)
		}
	}
}

// FuzzSetOps runs byte-encoded operation sequences against the map
// reference. Each operation takes four bytes: the operation, the three
// set indices packed base 3, and a 16-bit ID.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{0, 0, 0xff, 0x10, 0, 0, 0, 0x20, 1, 5, 0, 0, 3, 0, 0, 0, 0, 0, 0x10, 0})
	f.Add([]byte{0, 1, 0x80, 0, 0, 2, 0x80, 1, 2, 5, 0, 0, 4, 1, 0, 0, 5, 2, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0xff, 0xff, 0, 0, 0x40, 0, 3, 0, 0, 0, 0, 0, 0x7f, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newMachine()
		for i := 0; i+4 <= len(data); i += 4 {
			sel := int(data[i+1])
			id := int(data[i+2])<<8 | int(data[i+3])
			if err := m.step(data[i], sel%3, sel/3%3, sel/9%3, id); err != nil {
				t.Fatalf("op %d: %v", i/4, err)
			}
		}
	})
}
