// Package attack implements the adversary of the paper: attacker placement
// and satiation-target selection for the crash, ideal lotus-eater, and trade
// lotus-eater attacks of Section 2, including the rotating-target variant
// ("by changing who is satiated over time, the attacker could even make the
// service intermittently unusable for all nodes").
//
// The package is deliberately substrate-agnostic: it decides *which* nodes
// the attacker controls and *which* nodes it tries to satiate each round;
// the mechanics of how satiation is delivered live in the protocol
// simulators (internal/gossip, internal/tokenmodel, ...).
package attack

import (
	"fmt"

	"lotuseater/internal/bitset"
	"lotuseater/internal/simrng"
)

// Kind enumerates the attacks evaluated in the paper.
type Kind int

const (
	// None disables the attacker; attacker nodes behave honestly.
	None Kind = iota + 1
	// Crash is the baseline of Figure 1: attacker nodes simply provide no
	// service (crashed, or Byzantine nodes that initiate but never complete
	// exchanges).
	Crash
	// Ideal is the ideal lotus-eater attack: attacker nodes instantly
	// forward every update they receive from the broadcaster to all
	// satiated nodes, outside the protocol, and never trade.
	Ideal
	// Trade is the trade lotus-eater attack: attacker nodes interact only
	// through protocol-dictated exchanges, but give satiated partners every
	// update they have while giving isolated partners nothing.
	Trade
)

// String returns the attack name used in figures and CLI flags.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Ideal:
		return "ideal"
	case Trade:
		return "trade"
	default:
		return fmt.Sprintf("attack.Kind(%d)", int(k))
	}
}

// ParseKind maps a CLI name to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "none":
		return None, nil
	case "crash":
		return Crash, nil
	case "ideal":
		return Ideal, nil
	case "trade":
		return Trade, nil
	default:
		return 0, fmt.Errorf("attack: unknown kind %q (want none|crash|ideal|trade)", s)
	}
}

// PlaceAttackers selects round(fraction*n) attacker node ids uniformly at
// random. The paper's x-axis, "fraction of nodes controlled by attacker",
// sweeps this fraction.
func PlaceAttackers(n int, fraction float64, rng *simrng.Source) []int {
	return rng.SampleInts(n, Share(fraction, n))
}

// Share returns round(fraction·n) with fraction clamped to [0, 1]: the
// number of nodes PlaceAttackers places, and of targets a fraction names.
func Share(fraction float64, n int) int {
	return int(min(max(fraction, 0), 1)*float64(n) + 0.5)
}

// Targeter decides, per round, which nodes the attacker attempts to satiate.
// The returned set is immutable and shared — implementations return the same
// pointer for every round of one targeting epoch, so callers may compare
// pointers (or Epoch) to detect change and hold sets across rounds.
type Targeter interface {
	// Satiated returns the satiation targets for the given round. Attacker
	// nodes themselves are always included: they are "satiated" by
	// definition (they serve the attacker, not themselves).
	Satiated(round int) *TargetSet
}

// StaticTargeter satiates a fixed set: the attacker's own nodes plus enough
// pseudorandomly chosen honest nodes to reach the target fraction. This is
// the paper's primary configuration, with the target fraction fixed at 70%.
type StaticTargeter struct {
	targets *TargetSet
}

var _ Targeter = (*StaticTargeter)(nil)

// NewStaticTargeter builds the static satiation set: all attacker nodes plus
// pseudorandom honest nodes up to round(fraction*n). If the attacker
// controls more than fraction*n nodes already, only attacker nodes are
// targeted.
func NewStaticTargeter(n int, attackers []int, fraction float64, rng *simrng.Source) *StaticTargeter {
	return &StaticTargeter{targets: selectTargets(n, attackers, fraction, rng, nil)}
}

// Satiated implements Targeter.
func (t *StaticTargeter) Satiated(int) *TargetSet { return t.targets }

// RotatingTargeter re-draws the satiated set every period rounds, always
// keeping attacker nodes in it. Section 2 observes that rotating targets can
// make the service intermittently unusable for every node.
//
// Re-draws are diff-tracked: each epoch's set carries Added/Removed journals
// against the previous epoch, and the honest-candidate scratch is reused
// across epochs, so an epoch costs O(n) time (the uniform redraw itself) but
// only O(|satiated| + n/64) fresh allocation — and rounds within an epoch
// cost nothing at all.
type RotatingTargeter struct {
	n         int
	attackers []int
	fraction  float64
	period    int
	rng       *simrng.Source

	epoch   int
	targets *TargetSet
	scratch []int // honest-candidate buffer reused across epochs
}

var _ Targeter = (*RotatingTargeter)(nil)

// NewRotatingTargeter returns a targeter that re-selects targets every
// period rounds (period < 1 is treated as 1).
func NewRotatingTargeter(n int, attackers []int, fraction float64, period int, rng *simrng.Source) *RotatingTargeter {
	if period < 1 {
		period = 1
	}
	att := make([]int, len(attackers))
	copy(att, attackers)
	return &RotatingTargeter{
		n:         n,
		attackers: att,
		fraction:  fraction,
		period:    period,
		rng:       rng,
		epoch:     -1,
	}
}

// Satiated implements Targeter. Calls must be made with non-decreasing
// rounds (the simulation drives time forward).
func (t *RotatingTargeter) Satiated(round int) *TargetSet {
	epoch := round / t.period
	if epoch != t.epoch || t.targets == nil {
		t.epoch = epoch
		next := selectTargets(t.n, t.attackers, t.fraction, t.rng.ChildN("epoch", epoch), &t.scratch)
		next.diffFrom(t.targets)
		t.targets = next
	}
	return t.targets
}

// ListTargeter satiates an explicit node list; used for targeted attacks
// such as satiating a grid cut or a rare-resource holder.
type ListTargeter struct {
	targets *TargetSet
}

var _ Targeter = (*ListTargeter)(nil)

// NewListTargeter marks exactly the given node ids as targets. Hostile
// lists are tolerated by construction: ids outside [0, n) are clamped away
// and duplicates collapse (use ValidateTargetList to reject them loudly
// instead).
func NewListTargeter(n int, nodes []int) *ListTargeter {
	return &ListTargeter{targets: NewTargetSet(n, nodes)}
}

// Satiated implements Targeter.
func (t *ListTargeter) Satiated(int) *TargetSet { return t.targets }

// ValidateTargetList reports the first problem with an explicit target
// list: a negative id, an id >= n (when n > 0; pass n <= 0 when the
// population is not yet known), or a duplicate. The targeters themselves
// clamp silently; validation layers (scenario specs, CLI flags) call this to
// fail fast on hostile input.
func ValidateTargetList(n int, nodes []int) error {
	seen := make(map[int]struct{}, len(nodes))
	for i, v := range nodes {
		if v < 0 {
			return fmt.Errorf("attack: target list entry %d is negative (%d)", i, v)
		}
		if n > 0 && v >= n {
			return fmt.Errorf("attack: target list entry %d (%d) is out of range [0,%d)", i, v, n)
		}
		if _, dup := seen[v]; dup {
			return fmt.Errorf("attack: target list entry %d (%d) is a duplicate", i, v)
		}
		seen[v] = struct{}{}
	}
	return nil
}

// selectTargets draws the epoch's satiation set: every attacker node plus
// uniformly chosen honest nodes up to round(fraction*n). The honest-candidate
// buffer is taken from *scratch when provided, so rotating targeters reuse
// it across epochs. RNG consumption is exactly one SampleInts draw, identical
// to the historical dense implementation, so seeds reproduce the same sets.
func selectTargets(n int, attackers []int, fraction float64, rng *simrng.Source, scratch *[]int) *TargetSet {
	bits := bitset.New(n)
	for _, a := range attackers {
		if a >= 0 && a < n {
			bits.Add(a)
		}
	}
	want := Share(fraction, n)
	have := bits.Len()
	if want > have {
		// Pick the remaining targets among honest nodes, uniformly.
		var honest []int
		if scratch != nil {
			honest = (*scratch)[:0]
		}
		for v := 0; v < n; v++ {
			if !bits.Has(v) {
				honest = append(honest, v)
			}
		}
		if scratch != nil {
			*scratch = honest
		}
		for _, idx := range rng.SampleInts(len(honest), want-have) {
			bits.Add(honest[idx])
		}
	}
	return fromBits(bits)
}
