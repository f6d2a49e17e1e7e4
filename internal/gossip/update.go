package gossip

import "math/bits"

// UpdateID identifies one broadcast update: the Index-th update released in
// round Round.
type UpdateID struct {
	Round int
	Index int
}

// Key packs the id into a uint64 for receipts and map keys.
func (u UpdateID) Key() uint64 {
	return uint64(uint32(u.Round))<<32 | uint64(uint32(u.Index))
}

// liveUpdate is the engine's record of an update that has not yet expired.
// Who holds it is column b of the engine's holdings matrix, where b is the
// record's index in e.live.
type liveUpdate struct {
	id       UpdateID
	release  int
	deadline int // last round (inclusive) the update is useful
	// pool is true once any attacker node holds the update; trade attackers
	// collude and give from the shared pool.
	pool bool
	// measured is true when the update counts toward delivery statistics
	// (released after warmup and expiring within the horizon).
	measured bool
}

// row returns node v's holdings: bit b is set iff v holds e.live[b].
//
//lotus:allocfree
func (e *Engine) row(v int) []uint64 {
	return e.held[v*e.words : (v+1)*e.words]
}

// has reports whether node v holds e.live[b].
//
//lotus:allocfree
func (e *Engine) has(v, b int) bool {
	return e.held[v*e.words+b>>6]&(1<<(b&63)) != 0
}

// set records that node v holds e.live[b].
//
//lotus:allocfree
func (e *Engine) set(v, b int) {
	e.held[v*e.words+b>>6] |= 1 << (b & 63)
}

// rangeMask selects the bits of row word w that index live[lo:hi].
//
//lotus:allocfree
func rangeMask(w, lo, hi int) uint64 {
	base := w << 6
	return (^uint64(0) << max(lo-base, 0)) & (^uint64(0) >> max(base+64-hi, 0))
}

// heldOf counts how many of live[:end] node v holds. Live is in release
// order, so a prefix is "every update released by some round".
//
//lotus:allocfree
func (e *Engine) heldOf(v, end int) int {
	n := 0
	for w, x := range e.row(v)[:(end+63)>>6] {
		n += bits.OnesCount64(x & rangeMask(w, 0, end))
	}
	return n
}

// span names the part of the live set an exchange draws from. The old
// prefix and the recent rest both read the round's oldMask row; every live
// update needs no mask, since no row holds a bit at or above len(live).
type span uint8

const (
	spanLive   span = iota // every live update
	spanOld                // live[:oldEnd], released at least RecentWindow rounds ago
	spanRecent             // live[oldEnd:], the recently released rest
)

// diff returns word w of src &^ dst under span sp: the updates of sp whose
// bits in that word the src row holds and the dst row lacks.
//
//lotus:allocfree
func (e *Engine) diff(d, s []uint64, w int, sp span) uint64 {
	x := s[w] &^ d[w]
	switch sp {
	case spanOld:
		x &= e.oldMask[w]
	case spanRecent:
		x &^= e.oldMask[w]
	}
	return x
}

// need counts the updates of span sp that src holds and dst lacks, by
// popcount. It is the hot inner loop of the simulator.
//
//lotus:allocfree
func (e *Engine) need(dst, src int, sp span) int {
	d, s := e.row(dst), e.row(src)
	n := 0
	for w := range d {
		n += bits.OnesCount64(e.diff(d, s, w, sp))
	}
	return n
}

// take gives dst the lowest k updates of span sp that src holds and dst
// lacks, word by word: the k closest to expiry, since live is in release
// order. k must not exceed need(dst, src, sp).
//
//lotus:allocfree
func (e *Engine) take(dst, src int, sp span, k int) {
	d, s := e.row(dst), e.row(src)
	for w := 0; k > 0; w++ {
		x := e.diff(d, s, w, sp)
		c := bits.OnesCount64(x)
		if c > k {
			// Keep the lowest k bits: clear them from a copy, and drop
			// what is left.
			high := x
			for range k {
				high &= high - 1
			}
			x &^= high
			c = k
		}
		d[w] |= x
		k -= c
	}
}

// dropExpired retires the first k live updates: every row shifts right by
// k bits, so bit b keeps naming e.live[b] once the records shift down too.
//
//lotus:allocfree
func (e *Engine) dropExpired(k int) {
	q, r := k>>6, k&63
	for base := 0; base < len(e.held); base += e.words {
		row := e.held[base : base+e.words]
		for w := range row {
			var x uint64
			if s := w + q; s < len(row) {
				x = row[s] >> r
				if s+1 < len(row) {
					x |= row[s+1] << (64 - r) // a shift by 64 is 0 in Go
				}
			}
			row[w] = x
		}
	}
	e.live = append(e.live[:0], e.live[k:]...)
}
