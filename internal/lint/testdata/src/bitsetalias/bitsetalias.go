// Package bitsetalias is a linttest fixture for the bitsetalias analyzer:
// the borrowed-bitset discipline around a grabSet/releaseSet pool like the
// solver's. It imports the real bitset package so type matching works as it
// does on module code.
package bitsetalias

import "mahjong/internal/bitset"

type node struct {
	delta  *bitset.Set
	deltas []*bitset.Set
	byID   map[int]*bitset.Set
}

// pool mirrors the solver's delta-set free list. Its accessors are the
// ownership boundary and are exempt by name: releaseSet legitimately retains
// the set it takes back.
type pool struct {
	free []*bitset.Set
}

func (p *pool) grabSet() *bitset.Set {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		s.Clear()
		return s
	}
	return bitset.New(64)
}

func (p *pool) releaseSet(s *bitset.Set) {
	p.free = append(p.free, s)
}

// retainInField stores a borrowed set past the borrow.
func (n *node) retainInField(s *bitset.Set) {
	n.delta = s // want "retained in n.delta"
}

// retainInSlice escapes through an append one call deep.
func (n *node) retainInSlice(s *bitset.Set) {
	n.deltas = append(n.deltas, s) // want "retained in n.deltas"
}

// retainInMap escapes through a map element.
func (n *node) retainInMap(id int, s *bitset.Set) {
	n.byID[id] = s // want "retained in n.byID"
}

// passthrough returns the borrow, so the alias outlives it.
func passthrough(s *bitset.Set) *bitset.Set {
	return s // want "is returned"
}

// useAfterRelease touches a set the pool may already have handed to an
// unrelated node.
func (p *pool) useAfterRelease() int {
	s := p.grabSet()
	s.Add(1)
	p.releaseSet(s)
	return s.Len() // want "used after releaseSet"
}

// regrab is fine: the fresh binding ends the released state. No finding.
func (p *pool) regrab() int {
	s := p.grabSet()
	p.releaseSet(s)
	s = p.grabSet()
	defer p.releaseSet(s)
	return s.Len()
}

// releaseAndContinue is the solver's hot-path idiom: the release sits in a
// branch that always leaves the loop iteration, so the use after the branch
// never follows it. No finding.
func (p *pool) releaseAndContinue(work []int) int {
	total := 0
	for _, w := range work {
		s := p.grabSet()
		if w < 0 {
			p.releaseSet(s)
			continue
		}
		s.Add(w)
		total += s.Len()
		p.releaseSet(s)
	}
	return total
}

// readOnly borrows without escaping. No finding.
func readOnly(s *bitset.Set) int {
	return s.Len()
}
