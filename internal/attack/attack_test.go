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
	rng := simrng.New(2)
	attackers := []int{3, 7, 9}
	tg := NewStaticTargeter(20, attackers, 0.5, rng)
	targets := tg.Satiated(0)
	for _, a := range attackers {
		if !targets.Has(a) {
			t.Fatalf("attacker %d not in target set", a)
		}
	}
	if got, want := targets.Len(), 10; got != want {
		t.Fatalf("targeted %d, want %d", got, want)
	}
	// Static: the identical (shared, immutable) set every round.
	if later := tg.Satiated(100); later != targets {
		t.Fatal("static targeter changed over time")
	}
}

func TestStaticTargeterAttackerMajority(t *testing.T) {
	rng := simrng.New(2)
	attackers := make([]int, 15)
	for i := range attackers {
		attackers[i] = i
	}
	tg := NewStaticTargeter(20, attackers, 0.5, rng)
	// 15 attackers > 10 wanted: only attackers are targeted.
	if got := tg.Satiated(0).Len(); got != 15 {
		t.Fatalf("targeted %d, want 15", got)
	}
}

func TestStaticTargeterFractionClamped(t *testing.T) {
	rng := simrng.New(2)
	if got := NewStaticTargeter(10, nil, -1, rng).Satiated(0).Len(); got != 0 {
		t.Fatalf("negative fraction targeted %d", got)
	}
	if got := NewStaticTargeter(10, nil, 5, rng).Satiated(0).Len(); got != 10 {
		t.Fatalf("fraction > 1 targeted %d, want all", got)
	}
}

func TestRotatingTargeterRotates(t *testing.T) {
	rng := simrng.New(3)
	tg := NewRotatingTargeter(100, []int{0}, 0.4, 5, rng)
	epoch0 := tg.Satiated(0)
	if sameEpoch := tg.Satiated(4); sameEpoch != epoch0 {
		t.Fatal("targets changed within an epoch")
	}
	epoch1 := tg.Satiated(5)
	if equalInts(epoch1.Members(), epoch0.Members()) {
		t.Fatal("targets did not rotate across epochs")
	}
	if !epoch1.Has(0) {
		t.Fatal("attacker dropped from rotated target set")
	}
	if got := epoch1.Len(); got != 40 {
		t.Fatalf("rotated epoch targeted %d, want 40", got)
	}
}

func TestRotatingTargeterPeriodClamp(t *testing.T) {
	rng := simrng.New(3)
	tg := NewRotatingTargeter(10, nil, 0.5, 0, rng) // period 0 -> 1
	a := tg.Satiated(0)
	b := tg.Satiated(1)
	if a == b {
		t.Fatal("period clamp did not re-draw per round")
	}
	if equalInts(a.Members(), b.Members()) {
		t.Log("note: consecutive epochs drew identical sets (possible but unlikely)")
	}
}

func TestListTargeter(t *testing.T) {
	tg := NewListTargeter(10, []int{2, 4, 4, -1, 99})
	targets := tg.Satiated(0)
	if targets.Len() != 2 {
		t.Fatalf("targeted %d, want 2 (dedup + range filtering)", targets.Len())
	}
	if !targets.Has(2) || !targets.Has(4) {
		t.Fatal("listed nodes not targeted")
	}
}

func TestSelectTargetsDeterministic(t *testing.T) {
	a := NewStaticTargeter(50, []int{1}, 0.3, simrng.New(9)).Satiated(0)
	b := NewStaticTargeter(50, []int{1}, 0.3, simrng.New(9)).Satiated(0)
	if !equalInts(a.Members(), b.Members()) {
		t.Fatal("same-seed targeters differ")
	}
}

func TestStaticTargeterCountQuick(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw, fRaw uint8) bool {
		n := int(nRaw%100) + 2
		fraction := float64(fRaw) / 255
		tg := NewStaticTargeter(n, nil, fraction, simrng.New(seed))
		want := int(fraction*float64(n) + 0.5)
		return tg.Satiated(0).Len() == want
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
