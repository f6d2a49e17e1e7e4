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

// set records that node v holds e.live[b], reporting whether it is new.
//
//lotus:allocfree
func (e *Engine) set(v, b int) bool {
	w, bit := &e.held[v*e.words+b>>6], uint64(1)<<(b&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
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

// lacksAnyLive reports whether v is missing any of live[:end]: len(e.live)
// asks "is v unsatiated?", e.oldEnd "is v missing old updates?".
//
//lotus:allocfree
func (e *Engine) lacksAnyLive(v, end int) bool {
	return e.heldOf(v, end) < end
}

// missing lists, ascending, the live indices in [lo, hi) that src holds and
// dst lacks: src &^ dst over one bit range of two rows. It is the hot inner
// loop of the simulator, so it appends into the slot-th pooled buffer; each
// exchange uses at most two such lists at once, hence two slots.
//
//lotus:allocfree
func (e *Engine) missing(dst, src, lo, hi, slot int) []int {
	out := e.needScratch[slot][:0]
	d, s := e.row(dst), e.row(src)
	for w := lo >> 6; w<<6 < hi; w++ {
		for x := s[w] &^ d[w] & rangeMask(w, lo, hi); x != 0; x &= x - 1 {
			out = append(out, w<<6+bits.TrailingZeros64(x))
		}
	}
	e.needScratch[slot] = out
	return out
}

// needsFrom lists the live updates dst lacks that src holds.
//
//lotus:allocfree
func (e *Engine) needsFrom(dst, src, slot int) []int {
	return e.missing(dst, src, 0, len(e.live), slot)
}

// recentOffer lists the recently released updates src holds and `to` lacks.
//
//lotus:allocfree
func (e *Engine) recentOffer(to, src, slot int) []int {
	return e.missing(to, src, e.oldEnd, len(e.live), slot)
}

// oldNeeds lists the old, soon-to-expire updates `who` lacks that src holds.
//
//lotus:allocfree
func (e *Engine) oldNeeds(who, src, slot int) []int {
	return e.missing(who, src, 0, e.oldEnd, slot)
}

// give transfers the updates at the given live indices to node dst,
// returning how many were newly received.
//
//lotus:allocfree
func (e *Engine) give(indices []int, dst int) int {
	got := 0
	for _, b := range indices {
		if e.set(dst, b) {
			got++
		}
	}
	return got
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

// updateKeys maps live indices to UpdateID keys (for signed receipts).
func (e *Engine) updateKeys(indices []int) []uint64 {
	out := make([]uint64, len(indices))
	for k, idx := range indices {
		out[k] = e.live[idx].id.Key()
	}
	return out
}
