package population

import (
	"math"
	"testing"

	"lotuseater/internal/simrng"
)

func TestValidateSchedule(t *testing.T) {
	good := []Event{{Round: 0, Node: 1, Join: false}, {Round: 0, Node: 2, Join: false}, {Round: 3, Node: 1, Join: true}}
	if err := ValidateSchedule(good, 4); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name   string
		events []Event
	}{
		{"negative-round", []Event{{Round: -1, Node: 0}}},
		{"unsorted", []Event{{Round: 5, Node: 0}, {Round: 2, Node: 0}}},
		{"node-too-big", []Event{{Round: 0, Node: 4}}},
		{"negative-node", []Event{{Round: 0, Node: -1}}},
	}
	for _, c := range bad {
		if err := ValidateSchedule(c.events, 4); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestSynthesizeDeterministic: same rates, same stream label, same
// schedule — and a fresh stream replays it identically.
func TestSynthesizeDeterministic(t *testing.T) {
	r := Rates{LeaveRate: 0.05, JoinRate: 0.2}
	a := Synthesize(r, 50, 100, 2, simrng.New(9).Child("churn"))
	b := Synthesize(r, 50, 100, 2, simrng.New(9).Child("churn"))
	if len(a) == 0 {
		t.Fatal("no events synthesized at these rates")
	}
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if err := ValidateSchedule(a, 50); err != nil {
		t.Fatalf("synthesized schedule invalid: %v", err)
	}
}

// TestSynthesizeMinPresent: the floor holds — replaying any prefix of the
// schedule never leaves fewer than minPresent nodes present.
func TestSynthesizeMinPresent(t *testing.T) {
	const n, minPresent = 20, 5
	events := Synthesize(Rates{LeaveRate: 0.5}, n, 50, minPresent, simrng.New(3).Child("churn"))
	present := n
	for _, ev := range events {
		if ev.Join {
			present++
		} else {
			present--
		}
		if present < minPresent {
			t.Fatalf("schedule drains below minPresent: %d < %d at round %d", present, minPresent, ev.Round)
		}
	}
}

func TestSynthesizeDegenerate(t *testing.T) {
	rng := simrng.New(1)
	if ev := Synthesize(Rates{}, 10, 100, 1, rng.Child("a")); ev != nil {
		t.Fatalf("zero rates synthesized %d events", len(ev))
	}
	if ev := Synthesize(Rates{LeaveRate: 0.5}, 0, 100, 1, rng.Child("b")); ev != nil {
		t.Fatal("empty universe synthesized events")
	}
}

func TestCursor(t *testing.T) {
	events := []Event{{Round: 1, Node: 0}, {Round: 1, Node: 1, Join: true}, {Round: 4, Node: 2}}
	c := NewCursor(events)
	if c.JoinsAhead() != 1 {
		t.Fatalf("JoinsAhead = %d, want 1", c.JoinsAhead())
	}
	if _, ok := c.Next(0); ok {
		t.Fatal("round 0 should have no events")
	}
	got := 0
	for _, ok := c.Next(1); ok; _, ok = c.Next(1) {
		got++
	}
	if got != 2 {
		t.Fatalf("round 1 drained %d events, want 2", got)
	}
	if c.JoinsAhead() != 0 {
		t.Fatalf("JoinsAhead after drain = %d, want 0", c.JoinsAhead())
	}
	// A zero-value cursor is the static run: nothing due, no joins ahead.
	var zero Cursor
	if _, ok := zero.Next(99); ok || zero.JoinsAhead() != 0 || zero.Ahead() != 0 {
		t.Fatal("zero-value cursor is not inert")
	}
}

// TestCursorAhead: Ahead counts every unconsumed event, departures
// included, so a schedule whose last event is a departure is not drained
// while JoinsAhead already reads 0.
func TestCursorAhead(t *testing.T) {
	c := NewCursor([]Event{{Round: 1, Node: 1, Join: true}, {Round: 2, Node: 0}, {Round: 5, Node: 3}})
	for round, want := range []int{3, 2, 1, 1, 1, 0, 0} {
		for _, ok := c.Next(round); ok; _, ok = c.Next(round) {
		}
		if got := c.Ahead(); got != want {
			t.Fatalf("after round %d: Ahead = %d, want %d", round, got, want)
		}
		if round >= 1 && c.JoinsAhead() != 0 {
			t.Fatalf("after round %d: JoinsAhead = %d, want 0", round, c.JoinsAhead())
		}
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(8, 1.0)
	sum := 0.0
	for i, x := range w {
		sum += x
		if i > 0 && x >= w[i-1] {
			t.Fatalf("zipf weights not decreasing at %d: %g >= %g", i, x, w[i-1])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("zipf weights sum to %g", sum)
	}
	for _, bad := range []struct {
		k int
		s float64
	}{{0, 1}, {-3, 1}, {8, 0}, {8, -1}, {8, math.NaN()}, {8, math.Inf(1)}} {
		if ZipfWeights(bad.k, bad.s) != nil {
			t.Fatalf("ZipfWeights(%d, %g) should be nil", bad.k, bad.s)
		}
	}
}

func TestNormalizeAndUniform(t *testing.T) {
	if got := Normalize([]float64{2, 6}); got[0] != 0.25 || got[1] != 0.75 {
		t.Fatalf("Normalize = %v", got)
	}
	for _, bad := range [][]float64{{0, 0}, {-1, 2}, {math.NaN()}, {math.Inf(1)}, {}} {
		if Normalize(bad) != nil {
			t.Fatalf("Normalize(%v) should be nil", bad)
		}
	}
	if !Uniform([]float64{0.25, 0.25, 0.25, 0.25}, 1e-9) {
		t.Fatal("uniform vector not recognized")
	}
	if Uniform([]float64{0.5, 0.25, 0.25}, 1e-9) {
		t.Fatal("skewed vector called uniform")
	}
}

// TestWeightedIndexDistribution: the single-draw sampler tracks its
// weight vector — a 90/10 split lands near 90/10 over many draws — and
// Assign is deterministic per stream.
func TestWeightedIndexDistribution(t *testing.T) {
	rng := simrng.New(11).Child("w")
	counts := [2]int{}
	const draws = 10000
	for i := 0; i < draws; i++ {
		counts[WeightedIndex(rng, []float64{0.9, 0.1})]++
	}
	if frac := float64(counts[0]) / draws; frac < 0.88 || frac > 0.92 {
		t.Fatalf("index 0 drawn %.3f of the time, want ~0.9", frac)
	}

	a := Assign(64, []float64{0.3, 0.7}, simrng.New(5).Child("classes"))
	b := Assign(64, []float64{0.3, 0.7}, simrng.New(5).Child("classes"))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Assign not deterministic at node %d", i)
		}
	}
}
