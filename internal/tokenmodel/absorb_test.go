package tokenmodel

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/graph"
	"lotuseater/internal/population"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// describe names a case's knobs for a failure message.
func describe(c goldenCase) string {
	return fmt.Sprintf("n=%d tokens=%d contacts=%d altruism=%g rounds=%d classes=%v alloc=%v churn=%d limit=%d seed=%d adversary=%+v",
		c.cfg.Graph.N(), c.cfg.Tokens, c.cfg.Contacts, c.cfg.Altruism, c.cfg.Rounds, c.cfg.NodeContacts != nil,
		c.cfg.Allocation != nil, len(c.cfg.Churn), c.rateLimit, c.seed, c.adv)
}

// buildCase makes the case's Sim with a fresh adversary and defense.
func buildCase(t *testing.T, c goldenCase) *Sim {
	t.Helper()
	s, err := New(c.cfg, c.seed, c.options()...)
	if err != nil {
		t.Fatalf("%s: %v", describe(c), err)
	}
	return s
}

// pick returns one of xs, uniformly.
func pick[T any](rng *simrng.Source, xs ...T) T { return xs[rng.IntN(len(xs))] }

// randomEarlyCase draws a small configuration: the graph kind and size,
// token counts on and across 64-bit word boundaries, contact budgets 0–3
// and altruism 0, 0.1 and 1 (per node too), random allocations, churn
// (sometimes ending early, sometimes past the horizon), every attack kind
// with and without rotation, a campaign window and a target list, and
// rate-limit caps 0, 1 and 3.
func randomEarlyCase(seed uint64) goldenCase {
	rng := simrng.New(seed)
	n := 2 + rng.IntN(23)
	rounds := 1 + rng.IntN(24)
	cfg := Config{
		Tokens:   pick(rng, 1, 2, 3, 5, 24, 63, 64, 65, 127, 128, 130),
		Contacts: rng.IntN(4),
		Altruism: pick(rng, 0.0, 0.1, 1),
		Rounds:   rounds,
	}
	switch rng.IntN(4) {
	case 0:
		cfg.Graph = graph.Complete(n)
	case 1:
		cfg.Graph = graph.Random(n, pick(rng, 0.1, 0.3, 0.6), rng.Child("graph"))
	case 2:
		cfg.Graph = graph.Regularish(n, 1+rng.IntN(4), rng.Child("graph"))
	default:
		cfg.Graph = oracleGraph("disconnected", n, rng)
	}
	if rng.IntN(3) == 0 {
		cfg.NodeAltruism = make([]float64, n)
		cfg.NodeContacts = make([]int, n)
		for v := 0; v < n; v++ {
			cfg.NodeAltruism[v] = pick(rng, 0.0, 0.1, 1)
			cfg.NodeContacts[v] = rng.IntN(4)
		}
	}
	if rng.IntN(2) == 0 {
		cfg.Allocation = make([]int, n)
		for v := range cfg.Allocation {
			cfg.Allocation[v] = rng.IntN(cfg.Tokens)
		}
	}
	if rng.IntN(3) == 0 {
		last := pick(rng, rounds/2, rounds, rounds+2)
		for range rng.IntN(2 * n) {
			cfg.Churn = append(cfg.Churn, population.Event{Round: rng.IntN(last + 1), Node: rng.IntN(n), Join: rng.IntN(2) == 0})
		}
		slices.SortStableFunc(cfg.Churn, func(a, b population.Event) int { return a.Round - b.Round })
	}
	c := goldenCase{cfg: cfg, rateLimit: pick(rng, 0, 1, 3), seed: rng.Uint64()}
	if kind := rng.IntN(5); kind > 0 {
		adv := attack.Strategy{
			Kind:            attack.Kind(kind),
			Fraction:        pick(rng, 0.0, 0.1, 0.2, 0.4),
			SatiateFraction: pick(rng, 0.0, 0.3, 0.7),
		}
		if rng.IntN(3) == 0 {
			adv.RotatePeriod = 1 + rng.IntN(5)
		}
		if rng.IntN(3) == 0 {
			adv.Start = rng.IntN(rounds + 1)
			if rng.IntN(2) == 0 {
				adv.Stop = adv.Start + 1 + rng.IntN(rounds)
			}
		}
		if rng.IntN(6) == 0 {
			adv.TargetList = rng.SampleInts(n, rng.IntN(n+1))
		}
		c.adv = adv
	}
	return c
}

// TestEarlyFinishMatchesFullHorizon is the differential test of the
// absorbing-state rule: each random configuration runs through sim.Drive,
// which stops once Finished reports true, and through a plain Step loop to
// the horizon, and the two Results must be identical. The rule must also
// fire often enough to matter.
func TestEarlyFinishMatchesFullHorizon(t *testing.T) {
	const cases = 20000
	early := 0
	for i := range cases {
		c := randomEarlyCase(uint64(i))
		driven := buildCase(t, c)
		got, err := sim.Drive(driven)
		if err != nil {
			t.Fatalf("%s: Drive: %v", describe(c), err)
		}
		full := buildCase(t, c)
		for full.Round() < c.cfg.Rounds {
			if err := full.Step(); err != nil {
				t.Fatalf("%s: Step: %v", describe(c), err)
			}
		}
		want, err := full.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: finished at round %d\n got %+v\nwant %+v", describe(c), driven.Round(), got, want)
		}
		if driven.Round() < c.cfg.Rounds {
			early++
		}
	}
	t.Logf("%d of %d configurations finished before their horizon", early, cases)
	if early < cases/4 {
		t.Fatalf("only %d of %d configurations finished early, want at least a quarter", early, cases)
	}
}

// TestQuietRoundBeforeCampaignStart: nobody initiates, so every round
// before an ideal campaign's Start moves nothing, yet the replicate must
// run until the campaign has satiated its targets. Deciding from the idle
// target set of the round just simulated would end it at round 1.
func TestQuietRoundBeforeCampaignStart(t *testing.T) {
	const start = 5
	cfg := Config{Graph: graph.Complete(10), Tokens: 3, Contacts: 0, Rounds: 12}
	c := goldenCase{cfg: cfg, seed: 3, adv: attack.Strategy{Kind: attack.Ideal, Fraction: 0.1, SatiateFraction: 0.5, Start: start}}
	s := buildCase(t, c)
	for s.Round() <= start {
		if s.Finished() {
			t.Fatalf("finished after round %d, before the campaign's start at round %d had been simulated", s.Round()-1, start)
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sim.Drive(s)
	if err != nil {
		t.Fatal(err)
	}
	if s.Round() == cfg.Rounds {
		t.Fatal("never finished early, though no token can move after the campaign's first round")
	}
	if byRound := got.(Result).SatiatedByRound; byRound[start] <= byRound[start-1] {
		t.Fatalf("SatiatedByRound %v: the campaign satiated nobody at round %d", byRound, start)
	}
	full := buildCase(t, c)
	for full.Round() < cfg.Rounds {
		if err := full.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if want, _ := full.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Drive %+v\nfull horizon %+v", got, want)
	}
}

// TestAbsorbingNeedsIdealTargetsSatiated calls the check directly. After a
// round in which the ideal attacker satiated somebody the check never runs,
// so in a run an unsatiated ideal target never reaches it; on its own the
// check must still refuse such a state. A rate limit of 1 leaves the
// target short of its 4 missing tokens after the first round, and nobody
// initiates.
func TestAbsorbingNeedsIdealTargetsSatiated(t *testing.T) {
	cfg := Config{Graph: graph.Complete(6), Tokens: 5, Contacts: 0, Rounds: 10}
	c := goldenCase{cfg: cfg, rateLimit: 1, seed: 1, adv: attack.Strategy{Kind: attack.Ideal, TargetList: []int{2}}}
	s := buildCase(t, c)
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if got := s.HeldCount(2); got != 2 {
		t.Fatalf("target holds %d tokens after one rate-limited round, want 2", got)
	}
	if s.absorbing() {
		t.Fatal("absorbing with an unsatiated ideal target")
	}
}
