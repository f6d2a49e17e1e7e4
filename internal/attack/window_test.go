package attack

import (
	"slices"
	"strings"
	"testing"

	"lotuseater/internal/simrng"
)

// TestWindowEmptyOutside: outside [Start, Stop) the set is empty over the
// same n, and a ranked targeter is never asked to rank there.
func TestWindowEmptyOutside(t *testing.T) {
	const n = 100
	s := &Strategy{Kind: Ideal, Fraction: 0.1, SatiateFraction: 0.5, Start: 5, Stop: 10}
	s.Place(n, simrng.New(3))
	for round := 0; round < 15; round++ {
		got := s.Targets(round)
		if got.Cap() != n {
			t.Fatalf("round %d: set over %d nodes, want %d", round, got.Cap(), n)
		}
		if in := round >= 5 && round < 10; (got.Len() > 0) != in {
			t.Fatalf("round %d: %d targets, in window %v", round, got.Len(), in)
		}
	}

	r := &fakeRanker{order: []int{4, 2, 9}}
	ranked := &Strategy{Kind: Ideal, SatiateFraction: 0.3, Rank: RankUploaders, Start: 3, Stop: 6}
	ranked.UseRanker(r)
	ranked.Place(10, simrng.New(3))
	for round := 0; round < 9; round++ {
		calls := r.calls
		ranked.Targets(round)
		if in := round >= 3 && round < 6; (r.calls > calls) != in {
			t.Fatalf("round %d: ranker consulted %v, in window %v", round, r.calls > calls, in)
		}
	}
}

// TestWindowJournals: the set that opens the window journals every member
// as added, the one that closes it journals the last members as removed,
// and the closed set is stable afterwards.
func TestWindowJournals(t *testing.T) {
	const n = 100
	s := &Strategy{Kind: Trade, Fraction: 0.1, SatiateFraction: 0.5, Start: 5, Stop: 10}
	s.Place(n, simrng.New(4))
	before := s.Targets(4)
	opened := s.Targets(5)
	if len(before.Added()) != 0 || len(before.Removed()) != 0 {
		t.Fatalf("idle set journals +%v -%v", before.Added(), before.Removed())
	}
	if !slices.Equal(opened.Added(), opened.Members()) || len(opened.Removed()) != 0 {
		t.Fatalf("opening set journals +%v -%v over members %v", opened.Added(), opened.Removed(), opened.Members())
	}
	last := s.Targets(9)
	closed := s.Targets(10)
	if closed.Len() != 0 || len(closed.Added()) != 0 || !slices.Equal(closed.Removed(), last.Members()) {
		t.Fatalf("closing set: %d members, journal +%v -%v, want -%v", closed.Len(), closed.Added(), closed.Removed(), last.Members())
	}
	if s.Targets(11) != closed || s.Targets(50) != closed {
		t.Fatal("closed set not stable after the window")
	}
}

// TestWindowOpensMidEpoch: a rotating targeter whose window opens inside a
// rotation epoch still journals every member of the opening set as added.
func TestWindowOpensMidEpoch(t *testing.T) {
	s := &Strategy{Kind: Ideal, Fraction: 0.1, SatiateFraction: 0.5, RotatePeriod: 10, Start: 15}
	s.Place(80, simrng.New(5))
	for round := 0; round < 15; round++ {
		s.Targets(round)
	}
	opened := s.Targets(15)
	if opened.Len() == 0 || !slices.Equal(opened.Added(), opened.Members()) || len(opened.Removed()) != 0 {
		t.Fatalf("mid-epoch opening journals +%v -%v over members %v", opened.Added(), opened.Removed(), opened.Members())
	}
	if s.Targets(19) != opened {
		t.Fatal("set changed within the epoch it opened in")
	}
	if s.Targets(20) == opened {
		t.Fatal("no redraw at the next epoch")
	}
}

// TestWindowDepartureBeforeStart: a node that departs before the window
// opens stays excluded when it does, and the opening journal adds only the
// members actually targeted.
func TestWindowDepartureBeforeStart(t *testing.T) {
	ref, victim := placeSatiating(t, Ideal, 0)
	if !ref.Targets(5).Has(victim) {
		t.Fatalf("node %d not satiated without a window", victim)
	}
	s := &Strategy{Kind: Ideal, Fraction: 0.1, SatiateFraction: 0.5, Start: 5}
	s.Place(40, simrng.New(7))
	s.Targets(1)
	s.NodeDeparted(2, victim)
	s.Targets(2)
	opened := s.Targets(5)
	if opened.Has(victim) || slices.Contains(opened.Added(), victim) {
		t.Fatalf("node %d departed before Start but is targeted at the opening", victim)
	}
	if opened.Len() != ref.Targets(5).Len()-1 || !slices.Equal(opened.Added(), opened.Members()) || len(opened.Removed()) != 0 {
		t.Fatalf("opening set: %d members, journal +%v -%v", opened.Len(), opened.Added(), opened.Removed())
	}
}

// TestWindowlessSetsUnchanged: with Start = Stop = 0 Targets returns the
// targeter's own set, or its departure successor, pointer for pointer over
// 200 rounds of rotation and departures. The oracle is that logic, with no
// window, over a twin targeter.
func TestWindowlessSetsUnchanged(t *testing.T) {
	const n = 60
	s := &Strategy{Kind: Ideal, Fraction: 0.1, SatiateFraction: 0.5, RotatePeriod: 7}
	placed := s.Place(n, simrng.New(8))
	twin := NewRotatingTargeter(n, placed, 0.5, 7, simrng.New(8).Child("targets"))
	var seen, eff *TargetSet
	var pending []int
	oracle := func(round int) *TargetSet {
		if inner := twin.Satiated(round); inner != seen {
			seen, eff = inner, inner
		}
		if len(pending) > 0 {
			eff, pending = eff.Without(pending...), nil
		}
		return eff
	}
	var prevGot, prevWant *TargetSet
	for round := 0; round < 200; round++ {
		if round%5 == 3 {
			node := (round * 7) % n
			s.NodeDeparted(round, node)
			pending = append(pending, node)
		}
		got, want := s.Targets(round), oracle(round)
		if (got == prevGot) != (want == prevWant) {
			t.Fatalf("round %d: set changed %v, want %v", round, got != prevGot, want != prevWant)
		}
		if want == seen && got != s.targeter.Satiated(round) {
			t.Fatalf("round %d: not the targeter's own set", round)
		}
		if !slices.Equal(got.Members(), want.Members()) || !slices.Equal(got.Added(), want.Added()) ||
			!slices.Equal(got.Removed(), want.Removed()) || got.Epoch() != want.Epoch() {
			t.Fatalf("round %d: set or journal differs from the pre-window logic", round)
		}
		prevGot, prevWant = got, want
	}
}

// TestWindowTradeServesNobodyOutside: OnExchange follows Targets, so a trade
// attacker serves its targets only inside the window.
func TestWindowTradeServesNobodyOutside(t *testing.T) {
	s := &Strategy{Kind: Trade, Fraction: 0.1, SatiateFraction: 0.5, Start: 5, Stop: 10}
	placed := s.Place(100, simrng.New(4))
	twin := &Strategy{Kind: Trade, Fraction: 0.1, SatiateFraction: 0.5}
	twin.Place(100, simrng.New(4))
	target := twin.Targets(5).Members()[0]
	for round := 0; round < 15; round++ {
		in := round >= 5 && round < 10
		if got := s.OnExchange(round, placed[0], target); got != in {
			t.Fatalf("round %d: OnExchange = %v, in window %v", round, got, in)
		}
	}
}

// fakeRanker ranks by a settable order and counts the times it is asked.
type fakeRanker struct {
	order []int
	calls int
}

func (f *fakeRanker) Rank(r Rank, k int) []int {
	f.calls++
	return f.order[:min(k, len(f.order))]
}

// TestRankedTargets: a ranked strategy with no attacker nodes targets the
// model's best round(SatiateFraction·n) nodes in rank order, keeps one set
// while the ranking holds, journals a change against the previous ranking,
// and ignores departures (a ranking lists only live nodes).
func TestRankedTargets(t *testing.T) {
	r := &fakeRanker{order: []int{7, 3, 9, 1, 5}}
	s := &Strategy{Kind: Ideal, SatiateFraction: 0.3, Rank: RankRarest}
	s.UseRanker(r)
	if placed := s.Place(10, simrng.New(1)); len(placed) != 0 {
		t.Fatalf("placed %d attacker nodes", len(placed))
	}
	first := s.Targets(0)
	if !slices.Equal(first.Members(), []int{7, 3, 9}) {
		t.Fatalf("ranked members %v, want best first [7 3 9]", first.Members())
	}
	if s.Targets(0) != first || s.Targets(1) != first {
		t.Fatal("an unchanged ranking built a new set")
	}
	if r.calls != 2 {
		t.Fatalf("ranked %d times over two rounds", r.calls)
	}
	r.order = []int{3, 7, 9}
	if swapped := s.Targets(2); swapped == first || !slices.Equal(swapped.Members(), []int{3, 7, 9}) ||
		len(swapped.Added()) != 0 || len(swapped.Removed()) != 0 {
		t.Fatal("a reordered ranking did not yield a new set in the new order")
	}
	r.order = []int{3, 2, 9}
	s.NodeDeparted(3, 9)
	moved := s.Targets(3)
	if !slices.Equal(moved.Members(), []int{3, 2, 9}) || !slices.Equal(moved.Added(), []int{2}) || !slices.Equal(moved.Removed(), []int{7}) {
		t.Fatalf("ranked set %v journals +%v -%v", moved.Members(), moved.Added(), moved.Removed())
	}
	s.Reset()
	if s.ranker != nil || s.idle != nil || s.effective != nil {
		t.Fatal("Reset kept the ranker or a cached set")
	}
}

// TestStrategyValidateWindowAndRank rejects bad windows, unknown ranks, and
// ranks the strategy cannot honour.
func TestStrategyValidateWindowAndRank(t *testing.T) {
	for _, c := range []struct {
		s    Strategy
		want string
	}{
		{Strategy{Kind: Ideal, Start: -1}, "non-negative"},
		{Strategy{Kind: Ideal, Stop: -1}, "non-negative"},
		{Strategy{Kind: Ideal, Start: 5, Stop: 5}, "must exceed Start"},
		{Strategy{Kind: Ideal, Rank: "fastest"}, "unknown rank"},
		{Strategy{Kind: None, Rank: RankUploaders}, "ideal or trade"},
		{Strategy{Kind: Crash, Rank: RankRarest}, "ideal or trade"},
		{Strategy{Kind: Ideal, Rank: RankRarest, TargetList: []int{1}}, "replaces the target list"},
		{Strategy{Kind: Trade, Rank: RankRarest, RotatePeriod: 3}, "replaces the target list"},
	} {
		if err := c.s.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got %v, want an error mentioning %q", c.s, err, c.want)
		}
	}
	ok := Strategy{Kind: Trade, SatiateFraction: 0.1, Rank: RankUploaders, Start: 2, Stop: 9}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid ranked window rejected: %v", err)
	}
}
