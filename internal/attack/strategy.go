package attack

import (
	"fmt"
	"slices"

	"lotuseater/internal/simrng"
)

// Rank is a state-ranked targeting rule: instead of drawing its targets
// uniformly, the strategy satiates the nodes the hosting model ranks best.
// Section 1 names both rules for BitTorrent.
type Rank string

const (
	// RankUploaders targets the nodes currently uploading the most.
	RankUploaders Rank = "uploaders"
	// RankRarest targets the holders of the rarest pieces, to manufacture
	// a "last pieces problem".
	RankRarest Rank = "rarest"
)

// Ranker is a model that can order its live nodes for a ranked Strategy.
type Ranker interface {
	// Rank returns at most k live nodes, best target first under rule r,
	// ties broken by id. The caller copies what it keeps, so the model may
	// reuse the slice.
	Rank(r Rank, k int) []int
}

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
	// Start and Stop bound the campaign to rounds [Start, Stop), Stop 0
	// meaning never. Outside the window Targets is the empty set and
	// OnExchange serves nobody.
	Start, Stop int
	// Rank, when set, replaces the uniform draw with the hosting model's
	// best round(SatiateFraction·n) live nodes under that rule, re-ranked
	// every round. Only a model that ranks can host it (see UseRanker).
	Rank Rank

	n        int
	placed   []int
	targeter Targeter
	ranker   Ranker
	// idle is the empty set Targets returns outside a window: before
	// Start, and from Stop on with a journal removing the last members.
	idle *TargetSet

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
	s.n, s.placed, s.targeter, s.ranker, s.idle = 0, nil, nil, nil, nil
	s.pendingDepartures, s.innerSeen, s.effective = nil, nil, nil
}

// UseRanker binds the model that ranks a ranked strategy's targets. A
// model able to rank calls it before Place; Reset unbinds it.
func (s *Strategy) UseRanker(r Ranker) { s.ranker = r }

// Place implements the placement hook: it selects the attacker's nodes and
// prepares the round targeter. Randomness comes from rng's "placement" and
// "targets" children, matching the streams the gossip engine has always
// used, so a default-configured engine is bit-identical to its pre-strategy
// behavior.
func (s *Strategy) Place(n int, rng *simrng.Source) []int {
	s.n = n
	s.placed = nil
	if s.Start > 0 || s.Stop > 0 {
		s.idle = NewTargetSet(n, nil)
	}
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
	case s.Rank != "":
		// Ranked targets are named by the model's state, so like a list
		// they are exempt from the zero-attacker inertness below.
		if s.ranker == nil {
			panic("attack: a ranked Strategy needs a model that ranks (UseRanker before Place)")
		}
		s.targeter = &rankedTargeter{ranker: s.ranker, rank: s.Rank, n: n, k: Share(s.SatiateFraction, n)}
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
// every round of one targeting epoch. Outside the campaign window it is an
// empty set over the same n, and the targeter is not consulted; the set
// that opens the window journals every member as added, and the one that
// closes it journals the last members as removed.
func (s *Strategy) Targets(round int) *TargetSet {
	if s.targeter == nil {
		panic("attack: Strategy.Targets called before Place")
	}
	if s.Stop > 0 && round >= s.Stop {
		if s.effective != nil {
			s.idle, s.effective = s.effective.Without(s.effective.Members()...), nil
		}
		return s.idle
	}
	if round < s.Start {
		return s.idle
	}
	opening := s.effective == nil && s.Start > 0
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
	if opening {
		s.effective = s.effective.asFirst()
	}
	return s.effective
}

// NodeDeparted implements sim.DepartureAware: the departing node is removed
// from the effective target set at the next Targets call and stays excluded
// until the underlying targeter redraws (a static targeter never does, so an
// index vacated by a satiated node never re-enters the set for the rest of
// the run — the arrival reusing it starts unsatiated).
func (s *Strategy) NodeDeparted(round, node int) {
	// A ranking lists only live nodes, and once the window has closed no
	// set is built again, so neither needs the departure.
	if s.Rank == "" && (s.Stop == 0 || round < s.Stop) {
		s.pendingDepartures = append(s.pendingDepartures, node)
	}
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
	case s.Start < 0 || s.Stop < 0:
		return fmt.Errorf("attack: Start and Stop must be non-negative, got %d and %d", s.Start, s.Stop)
	case s.Stop > 0 && s.Stop <= s.Start:
		return fmt.Errorf("attack: Stop %d must exceed Start %d (or be 0 for never)", s.Stop, s.Start)
	case s.Rank != "" && s.Rank != RankUploaders && s.Rank != RankRarest:
		return fmt.Errorf("attack: unknown rank %q (want %s|%s)", s.Rank, RankUploaders, RankRarest)
	case s.Rank != "" && s.Kind != Ideal && s.Kind != Trade:
		return fmt.Errorf("attack: rank %q needs an ideal or trade attack, got %v", s.Rank, s.Kind)
	case s.Rank != "" && (s.TargetList != nil || s.RotatePeriod > 0):
		return fmt.Errorf("attack: rank %q replaces the target list and rotation; set neither", s.Rank)
	}
	if s.TargetList != nil {
		if err := ValidateTargetList(0, s.TargetList); err != nil {
			return err
		}
	}
	return nil
}

// rankedTargeter satiates the model's best k live nodes, re-ranked once per
// round. It keeps one set while the ranking holds, and that set lists its
// members in rank order, best first: an attacker with a bounded uplink
// spends it in that order, so the order is part of the attack.
type rankedTargeter struct {
	ranker Ranker
	rank   Rank
	n, k   int
	round  int
	set    *TargetSet
}

// Satiated implements Targeter.
func (t *rankedTargeter) Satiated(round int) *TargetSet {
	if t.set != nil && round == t.round {
		return t.set
	}
	t.round = round
	ranked := t.ranker.Rank(t.rank, t.k)
	if t.set == nil || !slices.Equal(ranked, t.set.members) {
		next := NewTargetSet(t.n, ranked)
		next.members = slices.Clone(ranked)
		next.added = next.members
		next.diffFrom(t.set)
		t.set = next
	}
	return t.set
}
