// Package defense implements the mitigation mechanisms of Section 4 that
// need machinery of their own: the obedient-reporting scheme ("a node can
// use the signed messages generated by BAR Gossip to prove that excessive
// service occurred, and get the reported node removed from the system") and
// service-rate limiting (Section 5's open problem: limit the rate at which
// nodes can provide service so the attacker cannot satiate "sufficiently
// rapidly").
//
// Both are substrate-independent: internal/gossip wires them into the BAR
// Gossip engine, and tests exercise them stand-alone.
package defense

import (
	"errors"
	"fmt"
	"sync"

	"lotuseater/internal/sign"
)

// RateLimiter caps the number of service units a node may accept from any
// single peer within one round. Obedient nodes enforce the cap; rational
// nodes would not (excess service benefits them), which is why the defense
// needs a population of obedient nodes to work. Every simulator takes it
// through its WithDefense option, and Reset lets one limiter be pooled
// across replicates via sim.Workspace.RateLimiter.
//
// The round's per-pair usage lives in an open-addressed table of {from, to}
// slots with linear probing. A slot belongs to the current round only when
// its stamp equals gen; a new round bumps gen, which empties the table
// without touching it. The table doubles when half of it is in use, and is
// cleared only when gen wraps around.
type RateLimiter struct {
	perPeerPerRound int

	mu    sync.Mutex
	round int
	gen   uint32 // stamp of the current round's slots; 0 marks a never-used slot
	live  int    // slots stamped with gen
	slots []pairSlot
}

// pairSlot is one (sender, receiver) pair's usage in the round stamped gen.
type pairSlot struct {
	from, to int
	used     int
	gen      uint32
}

// minSlots is the table size a limiter starts with; a power of two.
const minSlots = 64

// NewRateLimiter returns a limiter allowing up to perPeerPerRound units per
// (sender, receiver) pair per round. perPeerPerRound <= 0 disables limiting.
func NewRateLimiter(perPeerPerRound int) *RateLimiter {
	return &RateLimiter{perPeerPerRound: perPeerPerRound, gen: 1}
}

// Admit reports how many of the requested units the receiver may accept from
// the sender in the given round, and records the accepted amount. Rounds
// must be non-decreasing across calls (Reset restarts the clock): the
// window rolls over in place, so a stale round would silently wipe the
// current round's counts and corrupt every later grant. Admit panics on a
// round regression — a simulator driving time backwards is a programming
// error, not a recoverable condition.
//
//lotus:allocfree
func (l *RateLimiter) Admit(round, from, to, requested int) int {
	if l == nil || l.perPeerPerRound <= 0 || requested <= 0 {
		if requested < 0 {
			return 0
		}
		return requested
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if round < l.round {
		l.regressed(round)
	}
	if round != l.round {
		l.round = round
		l.nextGen()
	}
	slot := l.lookup(from, to)
	granted := min(requested, l.perPeerPerRound-slot.used)
	if granted <= 0 {
		return 0
	}
	slot.used += granted
	return granted
}

// lookup returns the current round's slot for (from, to), claiming an empty
// one (used 0) when the pair has none yet. Within a round slots are only
// claimed, never released, so a probe that meets a slot of another round
// has passed every slot the pair could hold.
//
//lotus:allocfree
func (l *RateLimiter) lookup(from, to int) *pairSlot {
	if 2*(l.live+1) > len(l.slots) {
		l.grow() // at half load; a steady pair population stops growing it
	}
	mask := len(l.slots) - 1
	for i := pairHash(from, to) & mask; ; i = (i + 1) & mask {
		slot := &l.slots[i]
		if slot.gen != l.gen {
			*slot = pairSlot{from: from, to: to, gen: l.gen}
			l.live++
			return slot
		}
		if slot.from == from && slot.to == to {
			return slot
		}
	}
}

// regressed panics on a round earlier than the limiter's clock; see Admit.
func (l *RateLimiter) regressed(round int) {
	panic(fmt.Sprintf("defense: RateLimiter round went backwards (%d after %d); call Reset between runs", round, l.round))
}

// grow doubles the table (or makes the first one) and re-inserts the
// current round's slots.
func (l *RateLimiter) grow() {
	old := l.slots
	l.slots = make([]pairSlot, max(minSlots, 2*len(old)))
	mask := len(l.slots) - 1
	for _, slot := range old {
		if slot.gen != l.gen {
			continue
		}
		i := pairHash(slot.from, slot.to) & mask
		for l.slots[i].gen == l.gen {
			i = (i + 1) & mask
		}
		l.slots[i] = slot
	}
}

// nextGen empties the table for a new round by bumping the stamp; only when
// the stamp wraps are the slots cleared, so no stale slot can carry the
// new stamp.
func (l *RateLimiter) nextGen() {
	l.gen++
	l.live = 0
	if l.gen == 0 {
		clear(l.slots)
		l.gen = 1
	}
}

// pairHash mixes a (sender, receiver) pair into a table index; the external
// sender -1 hashes like any other id.
func pairHash(from, to int) int {
	h := uint64(from)*0x9e3779b97f4a7c15 ^ uint64(to)*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int(h >> 1)
}

// Reset clears all accumulated state — round counter and per-pair usage —
// while keeping the table's storage, so a pooled limiter
// (sim.Workspace.RateLimiter) can be reused across replicates without
// reallocating.
func (l *RateLimiter) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.round = 0
	l.nextGen()
}

// Report is an accusation that a node provided excessive service, backed by
// a signed receipt proving the service happened.
type Report struct {
	// Reporter is the obedient node filing the report.
	Reporter int
	// Accused is the node that provided excessive service.
	Accused int
	// Evidence is the signed receipt of the over-large delivery.
	Evidence sign.Receipt
}

// Board collects reports, verifies their evidence, and evicts nodes that
// accumulate enough distinct accusers. It is safe for concurrent use.
type Board struct {
	keyring      *sign.Keyring
	threshold    int // deliveries larger than this are "excessive"
	evictReports int // distinct reporters needed to evict

	mu       sync.Mutex
	accusers map[int]map[int]struct{} // accused -> set of reporters
	evicted  map[int]int              // accused -> round evicted
}

// ErrBadEvidence is returned for reports whose receipt does not verify or
// does not actually show excessive service.
var ErrBadEvidence = errors.New("defense: evidence does not prove excessive service")

// NewBoard returns a Board that calls a delivery excessive when it carries
// more than threshold updates, and evicts after evictReports distinct
// reporters. evictReports < 1 is treated as 1.
func NewBoard(keyring *sign.Keyring, threshold, evictReports int) (*Board, error) {
	if keyring == nil {
		return nil, errors.New("defense: nil keyring")
	}
	if threshold < 0 {
		return nil, fmt.Errorf("defense: negative threshold %d", threshold)
	}
	if evictReports < 1 {
		evictReports = 1
	}
	return &Board{
		keyring:      keyring,
		threshold:    threshold,
		evictReports: evictReports,
		accusers:     make(map[int]map[int]struct{}),
		evicted:      make(map[int]int),
	}, nil
}

// Threshold returns the excessive-service threshold.
func (b *Board) Threshold() int { return b.threshold }

// Excessive reports whether a delivery of count updates is over threshold.
func (b *Board) Excessive(count int) bool { return count > b.threshold }

// File verifies and records a report. It returns ErrBadEvidence (wrapped)
// if the receipt fails verification, names a different accused/reporter
// pair, or shows a delivery within the threshold. Filing may evict the
// accused; eviction is visible through Evicted.
func (b *Board) File(round int, r Report) error {
	if !b.keyring.VerifyReceipt(r.Evidence) {
		return fmt.Errorf("%w: bad signature from node %d", ErrBadEvidence, r.Evidence.From)
	}
	if r.Evidence.From != r.Accused {
		return fmt.Errorf("%w: receipt signed by %d but accusing %d", ErrBadEvidence, r.Evidence.From, r.Accused)
	}
	if r.Evidence.To != r.Reporter {
		return fmt.Errorf("%w: receipt addressed to %d but reported by %d", ErrBadEvidence, r.Evidence.To, r.Reporter)
	}
	if !b.Excessive(len(r.Evidence.Updates)) {
		return fmt.Errorf("%w: delivery of %d is within threshold %d", ErrBadEvidence, len(r.Evidence.Updates), b.threshold)
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	set := b.accusers[r.Accused]
	if set == nil {
		set = make(map[int]struct{})
		b.accusers[r.Accused] = set
	}
	if _, dup := set[r.Reporter]; dup {
		return nil
	}
	set[r.Reporter] = struct{}{}
	if len(set) >= b.evictReports {
		if _, already := b.evicted[r.Accused]; !already {
			b.evicted[r.Accused] = round
		}
	}
	return nil
}

// Evicted reports whether node id has been evicted.
func (b *Board) Evicted(id int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.evicted[id]
	return ok
}

// EvictedCount returns how many nodes have been evicted.
func (b *Board) EvictedCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.evicted)
}
