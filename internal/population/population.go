// Package population holds the substrate-independent pieces of the
// scenario population model: deterministic lifecycle (join/leave)
// schedules, Zipf/weighted popularity vectors, and the single-draw
// weighted sampling primitive the engines share.
//
// The package sits below the engines (gossip, swarm, tokenmodel, scrip,
// coding) and above nothing: it imports only the stdlib and simrng, so
// every substrate can consume a compiled schedule without pulling in the
// scenario layer. The scenario package compiles a validated `population`
// spec block into these concrete values once per replicate, from labeled
// children of the replicate RNG — engines only replay them.
//
// Determinism contract: a schedule is a plain sorted slice; replaying it
// draws nothing. Synthesizing one from rates consumes draws from the
// Source passed to Synthesize and nothing else, so a spec without churn
// (nil schedule) leaves every engine stream bit-identical to a build
// that never heard of this package.
package population

import (
	"fmt"
	"math"

	"lotuseater/internal/simrng"
)

// Event is one lifecycle transition: at the top of round Round, node
// Node either joins (arrives, or re-arrives on a previously vacated
// index) or leaves. Events are applied before any exchange in the
// round, in slice order; schedules must be sorted by Round
// (non-decreasing). A leave for an absent node and a join for a present
// node are no-ops, so traces recorded against a different initial state
// replay without error.
type Event struct {
	Round int
	Node  int
	Join  bool
}

// ValidateSchedule checks a schedule against a node universe of size n:
// rounds non-negative and non-decreasing, nodes in [0, n). It returns a
// deterministic error naming the first offending event.
func ValidateSchedule(events []Event, n int) error {
	prev := 0
	for i, ev := range events {
		if ev.Round < 0 {
			return fmt.Errorf("population: event %d: negative round %d", i, ev.Round)
		}
		if ev.Round < prev {
			return fmt.Errorf("population: event %d: round %d before round %d (schedule must be sorted)", i, ev.Round, prev)
		}
		prev = ev.Round
		if ev.Node < 0 || ev.Node >= n {
			return fmt.Errorf("population: event %d: node %d outside [0,%d)", i, ev.Node, n)
		}
	}
	return nil
}

// Rates is a rate-driven churn process: each round from Start on, an
// expected LeaveRate fraction of present nodes departs and an expected
// JoinRate fraction of absent nodes returns. Both are fractional-
// accumulator processes (the fraction carries over between rounds), so
// small rates still produce events instead of rounding to zero forever.
type Rates struct {
	LeaveRate float64
	JoinRate  float64
	Start     int
}

// Synthesize expands a rate process into a concrete event schedule for
// one replicate: n nodes, horizon rounds, randomness from rng (which
// the caller should derive as a dedicated child so churn synthesis
// cannot perturb any engine stream). All nodes start present; at least
// minPresent nodes (clamped to [1, n]) are kept present at all times so
// the exchange machinery never runs out of counterparties. The result
// is sorted by round and ready for an engine's Cursor.
func Synthesize(r Rates, n, rounds, minPresent int, rng *simrng.Source) []Event {
	if n <= 0 || (r.LeaveRate <= 0 && r.JoinRate <= 0) {
		return nil
	}
	if minPresent < 1 {
		minPresent = 1
	}
	if minPresent > n {
		minPresent = n
	}
	present := make([]int, n)
	for i := range present {
		present[i] = i
	}
	absent := make([]int, 0, n)
	var out []Event
	var leaveAcc, joinAcc float64
	start := r.Start
	if start < 0 {
		start = 0
	}
	for round := start; round < rounds; round++ {
		leaveAcc += r.LeaveRate * float64(len(present))
		for leaveAcc >= 1 && len(present) > minPresent {
			leaveAcc--
			i := rng.IntN(len(present))
			v := present[i]
			present[i] = present[len(present)-1]
			present = present[:len(present)-1]
			absent = append(absent, v)
			out = append(out, Event{Round: round, Node: v, Join: false})
		}
		joinAcc += r.JoinRate * float64(len(absent))
		for joinAcc >= 1 && len(absent) > 0 {
			joinAcc--
			i := rng.IntN(len(absent))
			v := absent[i]
			absent[i] = absent[len(absent)-1]
			absent = absent[:len(absent)-1]
			out = append(out, Event{Round: round, Node: v, Join: true})
		}
	}
	return out
}

// Cursor walks a round-sorted schedule without allocating. Engines keep
// one by value and drain it at the top of each Step:
//
//	for ev, ok := c.Next(round); ok; ev, ok = c.Next(round) { ... }
type Cursor struct {
	events []Event
	next   int
}

// NewCursor returns a cursor over events (which must already be sorted
// by round; see ValidateSchedule).
func NewCursor(events []Event) Cursor {
	return Cursor{events: events}
}

// Next pops the next event due at or before round, if any.
func (c *Cursor) Next(round int) (Event, bool) {
	if c.next < len(c.events) && c.events[c.next].Round <= round {
		ev := c.events[c.next]
		c.next++
		return ev, true
	}
	return Event{}, false
}

// Events returns the cursor's full schedule, consumed or not — engines
// use it to validate the schedule against their node universe at build.
func (c *Cursor) Events() []Event { return c.events }

// Ahead counts the events not yet consumed, departures included — the
// token model finishes early only once none is left, since a departure
// changes who is present and so the count of satiated nodes.
func (c *Cursor) Ahead() int { return len(c.events) - c.next }

// JoinsAhead counts the join events not yet consumed — the swarm uses
// it to keep a drained torrent alive when future arrivals are due.
func (c *Cursor) JoinsAhead() int {
	joins := 0
	for _, ev := range c.events[c.next:] {
		if ev.Join {
			joins++
		}
	}
	return joins
}

// ZipfWeights returns k weights w_i ∝ (i+1)^-s normalized to sum 1:
// rank 0 is the most popular item. s must be > 0 and k > 0 (validated
// upstream); out-of-contract inputs return nil.
func ZipfWeights(k int, s float64) []float64 {
	if k <= 0 || s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil
	}
	w := make([]float64, k)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// Normalize returns a copy of w scaled to sum 1, or nil if the sum is
// not positive and finite.
func Normalize(w []float64) []float64 {
	sum := 0.0
	for _, x := range w {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
		sum += x
	}
	if sum <= 0 || math.IsInf(sum, 0) {
		return nil
	}
	out := make([]float64, len(w))
	for i, x := range w {
		out[i] = x / sum
	}
	return out
}

// Uniform reports whether w is (numerically) a uniform vector — every
// entry within eps of the mean. Canonicalization folds uniform
// popularity to "no popularity", which is what keeps the degenerate
// spec hashing (and replaying) identically to one with no block at all.
func Uniform(w []float64, eps float64) bool {
	if len(w) == 0 {
		return true
	}
	mean := 0.0
	for _, x := range w {
		mean += x
	}
	mean /= float64(len(w))
	for _, x := range w {
		if math.Abs(x-mean) > eps {
			return false
		}
	}
	return true
}

// WeightedIndex picks an index with probability weights[i]/Σweights
// using exactly one Float64 draw. Weights must be non-negative with a
// positive sum (the compiled vectors are normalized); a degenerate
// vector falls back to the last index deterministically.
func WeightedIndex(rng *simrng.Source, weights []float64) int {
	x := rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Assign draws a class index per node from the class weight vector,
// one Float64 draw per node, in node order. The scenario layer calls it
// only when two or more classes survive canonicalization, so a
// single-class (or class-free) spec draws nothing.
func Assign(n int, weights []float64, rng *simrng.Source) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = WeightedIndex(rng, weights)
	}
	return out
}
