// Package bitset provides a compact fixed-capacity bit set, used by the
// adversary's target sets, the coding simulator's plain mode and the scrip
// economy's candidate sets.
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

// Clear resets every bit, keeping the capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
	s.count = 0
}

// Clone returns an independent copy.
func (s *Set) Clone() *Set {
	out := &Set{words: make([]uint64, len(s.words)), n: s.n, count: s.count}
	copy(out.words, s.words)
	return out
}

// Fill sets every bit in [0, Cap).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if rem := s.n % 64; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] = (1 << rem) - 1
	}
	s.count = s.n
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

// Missing returns the clear bits in ascending order.
func (s *Set) Missing() []int {
	return s.AppendMissing(make([]int, 0, s.n-s.count))
}

// AppendMissing appends the clear bits in [0, Cap) to buf in ascending order
// and returns the extended slice. It exists for hot loops that reuse buf to
// stay allocation-free.
func (s *Set) AppendMissing(buf []int) []int {
	for wi, w := range s.words {
		w = ^w
		base := wi * 64
		for w != 0 {
			b := bits.TrailingZeros64(w)
			i := base + b
			if i >= s.n {
				break
			}
			buf = append(buf, i)
			w &= w - 1
		}
	}
	return buf
}
