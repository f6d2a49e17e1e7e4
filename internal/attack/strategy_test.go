package attack

import (
	"slices"
	"testing"

	"lotuseater/internal/simrng"
)

// TestStrategyPlacement: Place honors kind and fraction, and derives the
// same nodes as PlaceAttackers from the "placement" child stream.
func TestStrategyPlacement(t *testing.T) {
	const n = 100
	rng := simrng.New(5)
	want := PlaceAttackers(n, 0.25, rng.Child("placement"))

	s := &Strategy{Kind: Trade, Fraction: 0.25, SatiateFraction: 0.7}
	got := s.Place(n, simrng.New(5))
	if len(got) != len(want) {
		t.Fatalf("placed %d attackers, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("placement diverges at %d: %d vs %d", i, got[i], want[i])
		}
	}

	none := &Strategy{Kind: None, Fraction: 0.5}
	if placed := none.Place(n, simrng.New(5)); len(placed) != 0 {
		t.Fatalf("None strategy placed %d nodes", len(placed))
	}
}

// TestStrategyTargets: ideal and trade satiate the configured fraction
// (attackers included); crash and none target only the attacker's nodes.
func TestStrategyTargets(t *testing.T) {
	n := 200
	for _, kind := range []Kind{Ideal, Trade} {
		s := &Strategy{Kind: kind, Fraction: 0.1, SatiateFraction: 0.6}
		placed := s.Place(n, simrng.New(3))
		targets := s.Targets(0)
		if got, want := targets.Len(), int(0.6*float64(n)+0.5); got != want {
			t.Fatalf("%v: %d targets, want %d", kind, got, want)
		}
		for _, a := range placed {
			if !targets.Has(a) {
				t.Fatalf("%v: attacker %d not in its own satiated set", kind, a)
			}
		}
	}
	crash := &Strategy{Kind: Crash, Fraction: 0.1, SatiateFraction: 0.6}
	placed := crash.Place(n, simrng.New(3))
	if got := crash.Targets(0).Len(); got != len(placed) {
		t.Fatalf("crash targets %d nodes, want its %d attackers only", got, len(placed))
	}
}

// TestStrategyZeroAttackersInert: with no attacker nodes placed there is
// nobody to deliver satiation, so the fraction-driven ideal and trade
// attacks — static or rotating — satiate nobody, exactly like the none
// baseline. An explicit TargetList is the one exemption: it is an
// out-of-band experiment tool and keeps satiating its named nodes.
func TestStrategyZeroAttackersInert(t *testing.T) {
	const n = 120
	for _, s := range []*Strategy{
		{Kind: Ideal, Fraction: 0, SatiateFraction: 0.7},
		{Kind: Trade, Fraction: 0, SatiateFraction: 0.7},
		{Kind: Ideal, Fraction: 0, SatiateFraction: 0.7, RotatePeriod: 5},
	} {
		if placed := s.Place(n, simrng.New(9)); len(placed) != 0 {
			t.Fatalf("%v fraction 0 placed %d attackers", s.Kind, len(placed))
		}
		if got := s.Targets(0).Len(); got != 0 {
			t.Fatalf("%v with zero attackers satiated %d nodes", s.Kind, got)
		}
	}
	listed := &Strategy{Kind: Trade, Fraction: 0, TargetList: []int{3, 7, 11}}
	listed.Place(n, simrng.New(9))
	if got := listed.Targets(0).Len(); got != 3 {
		t.Fatalf("explicit target list with zero attackers satiated %d nodes, want its 3", got)
	}
}

// TestStrategyRotation: with a rotate period the satiated set is re-drawn
// across epochs but stable within one.
func TestStrategyRotation(t *testing.T) {
	const n = 150
	s := &Strategy{Kind: Ideal, Fraction: 0.1, SatiateFraction: 0.5, RotatePeriod: 10}
	s.Place(n, simrng.New(9))
	early := s.Targets(0)
	if within := s.Targets(9); within != early {
		t.Fatal("targets changed within one epoch")
	}
	later := s.Targets(10)
	if slices.Equal(later.Members(), early.Members()) {
		t.Fatal("targets did not rotate across epochs")
	}
}

// TestStrategyOnExchange: trade serves exactly the satiated set; crash and
// ideal serve nobody in protocol.
func TestStrategyOnExchange(t *testing.T) {
	const n = 100
	trade := &Strategy{Kind: Trade, Fraction: 0.1, SatiateFraction: 0.5}
	trade.Place(n, simrng.New(4))
	targets := trade.Targets(0)
	if targets.Len() == 0 {
		t.Fatal("trade strategy satiated nobody")
	}
	att := targets.Members()[0]
	for v := 0; v < n; v++ {
		if got := trade.OnExchange(0, att, v); got != targets.Has(v) {
			t.Fatalf("trade OnExchange(%d) = %v, targets.Has(%d) = %v", v, got, v, targets.Has(v))
		}
	}
	for _, kind := range []Kind{Crash, Ideal} {
		s := &Strategy{Kind: kind, Fraction: 0.1, SatiateFraction: 0.5}
		s.Place(n, simrng.New(4))
		for v := 0; v < n; v += 7 {
			if s.OnExchange(0, 0, v) {
				t.Fatalf("%v attacker served node %d in protocol", kind, v)
			}
		}
	}
}

// TestStrategyCapabilities: the capability probes reflect the kind.
func TestStrategyCapabilities(t *testing.T) {
	cases := []struct {
		kind            Kind
		trades, instant bool
	}{
		{None, false, false},
		{Crash, false, false},
		{Ideal, false, true},
		{Trade, true, false},
	}
	for _, c := range cases {
		s := &Strategy{Kind: c.kind}
		if s.TradesInProtocol() != c.trades {
			t.Fatalf("%v TradesInProtocol = %v", c.kind, s.TradesInProtocol())
		}
		if s.SatiatesInstantly() != c.instant {
			t.Fatalf("%v SatiatesInstantly = %v", c.kind, s.SatiatesInstantly())
		}
	}
}

// TestStrategyTargetList: an explicit target list satiates exactly those
// nodes plus the attacker's own.
func TestStrategyTargetList(t *testing.T) {
	const n = 50
	s := &Strategy{Kind: Ideal, TargetList: []int{3, 7, 11}}
	s.Place(n, simrng.New(2))
	targets := s.Targets(0)
	if targets.Len() != 3 || !targets.Has(3) || !targets.Has(7) || !targets.Has(11) {
		t.Fatalf("target list not honored: %d satiated", targets.Len())
	}
}

// TestStrategyValidate rejects out-of-range parameters.
func TestStrategyValidate(t *testing.T) {
	bad := []*Strategy{
		{Kind: Kind(99)},
		{Kind: Trade, Fraction: -0.1},
		{Kind: Trade, Fraction: 1.5},
		{Kind: Ideal, SatiateFraction: 2},
		{Kind: Ideal, RotatePeriod: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted %+v", i, s)
		}
	}
	if err := (&Strategy{Kind: Trade, Fraction: 0.3, SatiateFraction: 0.7}).Validate(); err != nil {
		t.Fatalf("valid strategy rejected: %v", err)
	}
}
