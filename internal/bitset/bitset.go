// Package bitset provides a compact fixed-capacity bit set, used by the
// adversary's target sets and the scrip economy's candidate sets, and the
// word-level helpers that count and select the bits one word row holds and
// another lacks, which the coding simulator's plain-mode holdings matrix and
// the swarm's piece rows share.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set over [0, Cap). The zero value is unusable;
// create Sets with New.
type Set struct {
	words []uint64
	n     int
	count int
}

// New returns an empty set with capacity n. It panics if n < 0.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Cap returns the capacity the set was created with.
func (s *Set) Cap() int { return s.n }

// Len returns the number of set bits.
func (s *Set) Len() int { return s.count }

// Has reports whether bit i is set. Out-of-range bits read as false.
func (s *Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/64]&(1<<(i%64)) != 0
}

// Add sets bit i and reports whether it was newly set. It panics for
// out-of-range i.
func (s *Set) Add(i int) bool {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
	w, m := i/64, uint64(1)<<(i%64)
	if s.words[w]&m != 0 {
		return false
	}
	s.words[w] |= m
	s.count++
	return true
}

// Remove clears bit i and reports whether it was set. It panics for
// out-of-range i.
func (s *Set) Remove(i int) bool {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
	w, m := i/64, uint64(1)<<(i%64)
	if s.words[w]&m == 0 {
		return false
	}
	s.words[w] &^= m
	s.count--
	return true
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	out := &Set{words: make([]uint64, len(s.words)), n: s.n, count: s.count}
	copy(out.words, s.words)
	return out
}

// Rank returns the number of set bits below i; i is clamped to [0, Cap].
//
//lotus:allocfree
func (s *Set) Rank(i int) int {
	if i >= s.n {
		return s.count
	}
	if i <= 0 {
		return 0
	}
	w := i / 64
	r := 0
	for _, x := range s.words[:w] {
		r += bits.OnesCount64(x)
	}
	if b := i % 64; b != 0 {
		r += bits.OnesCount64(s.words[w] & (1<<b - 1))
	}
	return r
}

// Select returns the k-th set bit in ascending order, counting from 0: the
// i with Has(i) and Rank(i) == k. It panics unless 0 <= k < Len.
//
//lotus:allocfree
func (s *Set) Select(k int) int {
	if k < 0 || k >= s.count {
		panic("bitset: select out of range")
	}
	for wi, w := range s.words {
		c := bits.OnesCount64(w)
		if k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			w &= w - 1
		}
		return wi*64 + bits.TrailingZeros64(w)
	}
	panic("bitset: count out of step with words")
}

// ForEach calls fn for every set bit in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// CountDiff returns the number of bits set in a and clear in b, two word
// rows of equal length.
//
//lotus:allocfree
func CountDiff(a, b []uint64) int {
	n := 0
	for i, w := range a {
		n += bits.OnesCount64(w &^ b[i])
	}
	return n
}

// SelectDiff returns the k-th bit (ascending, counting from 0) set in a and
// clear in b, two word rows of equal length. It panics unless
// 0 <= k < CountDiff(a, b).
//
//lotus:allocfree
func SelectDiff(a, b []uint64, k int) int {
	if k >= 0 {
		for i, w := range a {
			d := w &^ b[i]
			c := bits.OnesCount64(d)
			if k >= c {
				k -= c
				continue
			}
			for ; k > 0; k-- {
				d &= d - 1
			}
			return i*64 + bits.TrailingZeros64(d)
		}
	}
	panic("bitset: select in difference out of range")
}
