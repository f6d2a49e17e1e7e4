package tokenmodel

import (
	"fmt"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/defense"
	"lotuseater/internal/graph"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// TestStepAllocsIndependentOfPopulation pins the round's allocation-free
// contract: x/trade-token's shape (degree-4 graph, 24 tokens, 2 contacts)
// under trade and ideal attackers, with and without a rate limit, must
// allocate nothing per steady-state Step at 96 and at 960 nodes. Sampling
// each initiator's contacts into a fresh slice would add one allocation per
// initiating node, and deriving the round's stream with ChildN three.
func TestStepAllocsIndependentOfPopulation(t *testing.T) {
	measure := func(n int, kind attack.Kind, limit int) float64 {
		cfg := Config{
			Graph:    graph.Regularish(n, 4, simrng.New(5)),
			Tokens:   24,
			Contacts: 2,
			Rounds:   80,
		}
		opts := []Option{WithAdversary(&attack.Strategy{Kind: kind, Fraction: 0.2, SatiateFraction: 0.7})}
		if limit > 0 {
			opts = append(opts, WithDefense(defense.NewRateLimiter(limit)))
		}
		s, err := New(cfg, 13, opts...)
		if err != nil {
			t.Fatal(err)
		}
		// A few rounds settle the defense's and the adversary's state.
		for i := 0; i < 4; i++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, func() {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, kind := range []attack.Kind{attack.Trade, attack.Ideal} {
		for _, limit := range []int{0, 2} {
			t.Run(fmt.Sprintf("%v/limit=%d", kind, limit), func(t *testing.T) {
				small, big := measure(96, kind, limit), measure(960, kind, limit)
				t.Logf("allocations per Step: %.0f at n=96, %.0f at n=960", small, big)
				if small != 0 || big != 0 {
					t.Fatalf("steady-state Step allocates %.0f objects at n=96 and %.0f at n=960, want 0", small, big)
				}
			})
		}
	}
}

// BenchmarkTradeTokenReplicate builds and drives one replicate of
// x/trade-token's shape under a trade attacker holding 40% of the nodes,
// as a miss of bench/'s service workload runs it, and reports how many of
// the 60 rounds it stepped before Finished.
func BenchmarkTradeTokenReplicate(b *testing.B) {
	rounds := 0
	for i := 0; i < b.N; i++ {
		seed := uint64(i)
		s, err := New(goldenShape(seed), seed, WithAdversary(&attack.Strategy{Kind: attack.Trade, Fraction: 0.4, SatiateFraction: 0.7}))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Drive(s); err != nil {
			b.Fatal(err)
		}
		rounds += s.Round()
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/replicate")
}
