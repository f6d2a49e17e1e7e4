package attack

import (
	"testing"
	"testing/quick"

	"lotuseater/internal/simrng"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		None: "none", Crash: "crash", Ideal: "ideal", Trade: "trade",
		Kind(99): "attack.Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestParseKindRoundtrip(t *testing.T) {
	for _, k := range []Kind{None, Crash, Ideal, Trade} {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Fatalf("ParseKind(%q) = %v", k.String(), got)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind accepted bogus")
	}
}

func TestPlaceAttackersCount(t *testing.T) {
	rng := simrng.New(1)
	cases := []struct {
		n        int
		fraction float64
		want     int
	}{
		{100, 0.3, 30},
		{100, 0, 0},
		{100, 1, 100},
		{250, 0.22, 55},
		{100, -0.5, 0},
		{100, 2.0, 100},
	}
	for _, c := range cases {
		got := PlaceAttackers(c.n, c.fraction, rng)
		if len(got) != c.want {
			t.Fatalf("PlaceAttackers(%d, %g) placed %d, want %d", c.n, c.fraction, len(got), c.want)
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= c.n || seen[v] {
				t.Fatalf("invalid or duplicate attacker id %d", v)
			}
			seen[v] = true
		}
	}
}

func TestStaticTargeterIncludesAttackers(t *testing.T) {
	attackers := []int{3, 7, 9}
	targets := selectTargets(20, attackers, 0.5, simrng.New(2), nil)
	for _, a := range attackers {
		if !targets.Has(a) {
			t.Fatalf("attacker %d not in target set", a)
		}
	}
	if got, want := targets.Len(), 10; got != want {
		t.Fatalf("targeted %d, want %d", got, want)
	}
	// Static: the identical (shared, immutable) set every round.
	s := &Strategy{Kind: Trade, Fraction: 0.15, SatiateFraction: 0.5}
	s.Place(20, simrng.New(2))
	if first := s.Targets(0); s.Targets(100) != first {
		t.Fatal("static target set changed over time")
	}
}

func TestStaticTargeterAttackerMajority(t *testing.T) {
	attackers := make([]int, 15)
	for i := range attackers {
		attackers[i] = i
	}
	// 15 attackers > 10 wanted: only attackers are targeted.
	if got := selectTargets(20, attackers, 0.5, simrng.New(2), nil).Len(); got != 15 {
		t.Fatalf("targeted %d, want 15", got)
	}
}

func TestStaticTargeterFractionClamped(t *testing.T) {
	rng := simrng.New(2)
	if got := selectTargets(10, nil, -1, rng, nil).Len(); got != 0 {
		t.Fatalf("negative fraction targeted %d", got)
	}
	if got := selectTargets(10, nil, 5, rng, nil).Len(); got != 10 {
		t.Fatalf("fraction > 1 targeted %d, want all", got)
	}
}

func TestRotatingTargeterRotates(t *testing.T) {
	s := &Strategy{Kind: Ideal, Fraction: 0.01, SatiateFraction: 0.4, RotatePeriod: 5}
	placed := s.Place(100, simrng.New(3))
	epoch0 := s.Targets(0)
	if sameEpoch := s.Targets(4); sameEpoch != epoch0 {
		t.Fatal("targets changed within an epoch")
	}
	epoch1 := s.Targets(5)
	if equalInts(epoch1.Members(), epoch0.Members()) {
		t.Fatal("targets did not rotate across epochs")
	}
	if !epoch1.Has(placed[0]) {
		t.Fatal("attacker dropped from rotated target set")
	}
	if got := epoch1.Len(); got != 40 {
		t.Fatalf("rotated epoch targeted %d, want 40", got)
	}
}

// TestRotatingTargeterPeriodClamp: the shortest rotation, RotatePeriod 1,
// redraws every round; a period of 0 never rotates, and a negative one is
// refused.
func TestRotatingTargeterPeriodClamp(t *testing.T) {
	s := &Strategy{Kind: Ideal, Fraction: 0.1, SatiateFraction: 0.5, RotatePeriod: 1}
	s.Place(10, simrng.New(3))
	a := s.Targets(0)
	b := s.Targets(1)
	if a == b {
		t.Fatal("period 1 did not re-draw per round")
	}
	if equalInts(a.Members(), b.Members()) {
		t.Log("note: consecutive epochs drew identical sets (possible but unlikely)")
	}
	fixed := &Strategy{Kind: Ideal, Fraction: 0.1, SatiateFraction: 0.5}
	fixed.Place(10, simrng.New(3))
	if fixed.Targets(0) != fixed.Targets(1) {
		t.Fatal("period 0 re-drew")
	}
	if err := (&Strategy{Kind: Ideal, RotatePeriod: -1}).Validate(); err == nil {
		t.Fatal("negative rotate period accepted")
	}
}

// TestListTargeter: a hostile target list is clamped at Place: duplicates
// collapse and out-of-range ids drop.
func TestListTargeter(t *testing.T) {
	s := &Strategy{Kind: Ideal, TargetList: []int{2, 4, 4, -1, 99}}
	s.Place(10, simrng.New(1))
	targets := s.Targets(0)
	if targets.Len() != 2 {
		t.Fatalf("targeted %d, want 2 (dedup + range filtering)", targets.Len())
	}
	if !targets.Has(2) || !targets.Has(4) {
		t.Fatal("listed nodes not targeted")
	}
}

func TestSelectTargetsDeterministic(t *testing.T) {
	a := selectTargets(50, []int{1}, 0.3, simrng.New(9), nil)
	b := selectTargets(50, []int{1}, 0.3, simrng.New(9), nil)
	if !equalInts(a.Members(), b.Members()) {
		t.Fatal("same-seed draws differ")
	}
}

func TestStaticTargeterCountQuick(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw, fRaw uint8) bool {
		n := int(nRaw%100) + 2
		fraction := float64(fRaw) / 255
		want := int(fraction*float64(n) + 0.5)
		return selectTargets(n, nil, fraction, simrng.New(seed), nil).Len() == want
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
