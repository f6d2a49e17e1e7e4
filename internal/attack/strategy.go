package attack

import (
	"fmt"

	"lotuseater/internal/simrng"
)

// Strategy is the paper's adversary as a reusable, substrate-independent
// strategy. It satisfies sim.Adversary structurally (this package does not
// import internal/sim), so every simulator can host the same four attacks:
//
//   - None:  no attacker nodes, no targets — the healthy baseline.
//   - Crash: attacker nodes provide no service and satiate nobody.
//   - Ideal: attacker nodes stay out of protocol; targets are satiated
//     instantly each round (SatiatesInstantly reports true).
//   - Trade: attacker nodes stay in protocol (TradesInProtocol reports
//     true) and serve exactly the satiation targets.
//
// A Strategy is stateful per run: Place must be called once before Targets
// or OnExchange, and Targets must see non-decreasing rounds. Use a fresh
// value (or call Reset) per replicate.
type Strategy struct {
	// Kind selects the attack.
	Kind Kind
	// Fraction is the fraction of nodes the adversary controls.
	Fraction float64
	// SatiateFraction is the fraction of the system (attacker nodes
	// included) targeted for satiation (0.70 in the paper). Ignored when
	// TargetList is set.
	SatiateFraction float64
	// RotatePeriod, when positive, re-draws the satiated set every that many
	// rounds (Section 2's "intermittently unusable" variant).
	RotatePeriod int
	// TargetList, when non-nil, satiates exactly these node ids (plus the
	// attacker's own nodes) instead of a pseudorandom SatiateFraction —
	// targeted attacks such as grid cuts and rare-resource holders.
	TargetList []int

	n        int
	placed   []int
	targeter Targeter

	// Departure overlay (population churn). The targeters above assume a
	// fixed node universe; under churn a satiated node that departs takes
	// its satiation with it, and a later arrival reusing the index must NOT
	// inherit it. pendingDepartures accumulates NodeDeparted calls; Targets
	// folds them into effective (a Without successor of the targeter's set)
	// and clears them whenever the inner targeter redraws (a redraw
	// re-evaluates targeting from scratch and may legitimately pick the
	// reused index again).
	pendingDepartures []int
	innerSeen         *TargetSet
	effective         *TargetSet
}

// Reset returns the strategy to its pre-Place state so it can host a fresh
// replicate.
func (s *Strategy) Reset() {
	s.n, s.placed, s.targeter = 0, nil, nil
	s.pendingDepartures, s.innerSeen, s.effective = nil, nil, nil
}

// Place implements the placement hook: it selects the attacker's nodes and
// prepares the round targeter. Randomness comes from rng's "placement" and
// "targets" children, matching the streams the gossip engine has always
// used, so a default-configured engine is bit-identical to its pre-strategy
// behavior.
func (s *Strategy) Place(n int, rng *simrng.Source) []int {
	s.n = n
	s.placed = nil
	if s.Kind != None && s.Kind != 0 && s.Fraction > 0 {
		s.placed = PlaceAttackers(n, s.Fraction, rng.Child("placement"))
	}
	trng := rng.Child("targets")
	switch {
	case s.Kind != Ideal && s.Kind != Trade:
		// Crash attackers and the no-attack baseline satiate nobody; the
		// target set is just the attacker nodes themselves so every honest
		// node counts as isolated.
		s.targeter = NewListTargeter(n, s.placed)
	case s.TargetList != nil:
		// An explicit target list is an out-of-band experiment tool (grid
		// cuts, rare-resource holders): it satiates exactly the named nodes
		// whether or not attackers are placed, and is exempt from the
		// zero-attacker inertness below.
		s.targeter = NewListTargeter(n, append(append([]int(nil), s.placed...), s.TargetList...))
	case len(s.placed) == 0:
		// Satiation is delivered by attacker nodes — out of protocol for
		// the ideal attack, through exchanges for the trade attack. With
		// zero attackers placed there is nobody to deliver it, so the
		// attack is inert: no satiated set, no stats regrouping. This is
		// what makes a fraction-0 ideal/trade spec bit-identical to the
		// `none` baseline (pinned by the scenario invariant suite).
		s.targeter = NewListTargeter(n, nil)
	case s.RotatePeriod > 0:
		s.targeter = NewRotatingTargeter(n, s.placed, s.SatiateFraction, s.RotatePeriod, trng)
	default:
		s.targeter = NewStaticTargeter(n, s.placed, s.SatiateFraction, trng)
	}
	return append([]int(nil), s.placed...)
}

// Targets implements the per-round targeting hook. Place must have run.
// The returned set is immutable and shared; the same pointer comes back for
// every round of one targeting epoch.
func (s *Strategy) Targets(round int) *TargetSet {
	if s.targeter == nil {
		panic("attack: Strategy.Targets called before Place")
	}
	inner := s.targeter.Satiated(round)
	if inner != s.innerSeen {
		// New targeting epoch: the targeter re-evaluated its set from
		// scratch, so the historical departure exclusions (folded into the
		// old effective set) no longer apply — a redrawn set targeting a
		// reused index is targeting the new occupant. Departures recorded
		// since the last call are NOT dropped: they precede this round's
		// exchanges whether or not a redraw landed on the same round, so
		// they fold into the fresh set below.
		s.innerSeen, s.effective = inner, inner
	}
	if len(s.pendingDepartures) > 0 {
		s.effective = s.effective.Without(s.pendingDepartures...)
		s.pendingDepartures = s.pendingDepartures[:0]
	}
	return s.effective
}

// NodeDeparted implements sim.DepartureAware: the departing node is removed
// from the effective target set at the next Targets call and stays excluded
// until the underlying targeter redraws (a static targeter never does, so an
// index vacated by a satiated node never re-enters the set for the rest of
// the run — the arrival reusing it starts unsatiated).
func (s *Strategy) NodeDeparted(round, node int) {
	s.pendingDepartures = append(s.pendingDepartures, node)
}

// OnExchange implements the in-protocol service decision: trade attackers
// serve exactly the satiation targets; crash and ideal attackers serve
// nobody; a None "adversary" behaves honestly (and controls no nodes
// anyway).
func (s *Strategy) OnExchange(round, attacker, partner int) bool {
	switch s.Kind {
	case Trade:
		return s.Targets(round).Has(partner)
	case Crash, Ideal:
		return false
	default:
		return true
	}
}

// TradesInProtocol reports whether attacker nodes initiate and answer
// protocol exchanges (the trade lotus-eater).
func (s *Strategy) TradesInProtocol() bool { return s.Kind == Trade }

// SatiatesInstantly reports whether targets are satiated out of protocol at
// round start (the ideal lotus-eater).
func (s *Strategy) SatiatesInstantly() bool { return s.Kind == Ideal }

// Validate reports the first problem with the strategy's parameters, or nil.
// A TargetList is checked for negatives and duplicates here; ids beyond the
// (not yet known) population are caught by ValidateTargetList at the layer
// that knows n, and clamped by the targeter either way.
func (s *Strategy) Validate() error {
	switch {
	case s.Kind < None || s.Kind > Trade:
		return fmt.Errorf("attack: unknown kind %d", s.Kind)
	case s.Fraction < 0 || s.Fraction > 1:
		return fmt.Errorf("attack: Fraction must be in [0,1], got %g", s.Fraction)
	case s.SatiateFraction < 0 || s.SatiateFraction > 1:
		return fmt.Errorf("attack: SatiateFraction must be in [0,1], got %g", s.SatiateFraction)
	case s.RotatePeriod < 0:
		return fmt.Errorf("attack: RotatePeriod must be non-negative, got %d", s.RotatePeriod)
	}
	if s.TargetList != nil {
		if err := ValidateTargetList(0, s.TargetList); err != nil {
			return err
		}
	}
	return nil
}
