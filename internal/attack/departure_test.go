package attack

import (
	"testing"

	"lotuseater/internal/simrng"
)

// placeSatiating builds a placed strategy with at least one honest node in
// the satiated set and returns (strategy, one satiated honest node).
func placeSatiating(t *testing.T, kind Kind, rotate int) (*Strategy, int) {
	t.Helper()
	s := &Strategy{Kind: kind, Fraction: 0.1, SatiateFraction: 0.5, RotatePeriod: rotate}
	s.Place(40, simrng.New(7))
	attackers := make(map[int]bool)
	for _, a := range s.placed {
		attackers[a] = true
	}
	for _, v := range s.Targets(0).Members() {
		if !attackers[v] {
			return s, v
		}
	}
	t.Fatal("no satiated honest node in target set")
	return nil, 0
}

func TestTargetSetWithout(t *testing.T) {
	base := NewTargetSet(10, []int{1, 3, 5, 7})
	got := base.Without(3, 7, 9) // 9 is not a member: ignored
	if got == base {
		t.Fatal("Without with removals returned the same set")
	}
	if got.Has(3) || got.Has(7) || !got.Has(1) || !got.Has(5) {
		t.Fatalf("membership wrong after Without: members=%v", got.Members())
	}
	// Base set is untouched (immutability).
	if !base.Has(3) || base.Len() != 4 {
		t.Fatal("Without mutated the receiver")
	}
	// No-op removals return the receiver itself: no spurious new set for
	// pointer-keyed consumers.
	if same := got.Without(9, 3); same != got {
		t.Fatal("Without with no effective removals allocated a new set")
	}
}

// TestDepartureDoesNotLeakSatiation is the regression test for the
// fixed-universe assumption in target-set epoch sharing: a satiated node
// departs, a new node arrives reusing its index, and — with a fixed set,
// which is never redrawn — the reused index must not inherit the
// old occupant's satiation for the rest of the run.
func TestDepartureDoesNotLeakSatiation(t *testing.T) {
	for _, kind := range []Kind{Ideal, Trade} {
		s, victim := placeSatiating(t, kind, 0)
		if !s.Targets(3).Has(victim) {
			t.Fatalf("kind %v: node %d not satiated before departure", kind, victim)
		}
		s.NodeDeparted(4, victim)
		for round := 4; round < 30; round++ {
			if s.Targets(round).Has(victim) {
				t.Fatalf("kind %v: reused index %d inherited satiation at round %d", kind, victim, round)
			}
		}
		if kind == Trade && s.OnExchange(10, s.placed[0], victim) {
			t.Fatalf("trade attacker still serves departed index %d", victim)
		}
	}
}

// TestDepartureStartsNewSet: a departure of a satiated node returns a new
// set without it, which then stays the same pointer until the next event.
func TestDepartureStartsNewSet(t *testing.T) {
	s, victim := placeSatiating(t, Ideal, 0)
	before := s.Targets(2)
	s.NodeDeparted(3, victim)
	after := s.Targets(3)
	if after == before {
		t.Fatal("departure did not produce a new target set")
	}
	if after.Has(victim) {
		t.Fatalf("departed node %d still targeted", victim)
	}
	// Stable afterwards: same pointer every round until the next event.
	if s.Targets(4) != after || s.Targets(9) != after {
		t.Fatal("effective set not stable across rounds after departure")
	}
}

// A rotation redraw legitimately re-evaluates targeting: exclusions from
// before the redraw are dropped (the redraw may target the index's new
// occupant), while the redrawn set itself is still correct.
func TestDepartureExclusionResetsOnRedraw(t *testing.T) {
	s, victim := placeSatiating(t, Ideal, 5)
	s.NodeDeparted(1, victim)
	if s.Targets(1).Has(victim) {
		t.Fatal("exclusion not applied within the epoch")
	}
	// After the period boundary the rotation redraws; whether the new set
	// contains the index is the draw's call again.
	redrawn := s.Targets(5)
	if redrawn != s.set {
		t.Fatal("post-redraw effective set should be the fresh draw")
	}
}

// A departure recorded in the same round as a redraw still applies: the
// node left before any exchange of that round.
func TestDepartureSameRoundAsRedraw(t *testing.T) {
	s, _ := placeSatiating(t, Ideal, 5)
	// Find an honest node satiated in the *second* epoch.
	inner := s.Targets(5)
	attackers := make(map[int]bool)
	for _, a := range s.placed {
		attackers[a] = true
	}
	victim := -1
	for _, v := range inner.Members() {
		if !attackers[v] {
			victim = v
			break
		}
	}
	if victim < 0 {
		t.Skip("second epoch satiates no honest node at this seed")
	}
	s2, _ := placeSatiating(t, Ideal, 5)
	s2.Targets(4) // advance into epoch 0
	s2.NodeDeparted(5, victim)
	if s2.Targets(5).Has(victim) {
		t.Fatal("same-round departure dropped by the redraw")
	}
}
