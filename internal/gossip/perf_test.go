package gossip

import (
	"testing"

	"lotuseater/internal/attack"
)

// bigPathConfig is the shape the gossip-1m scenario uses, shrunk to a
// test-sized population: one update per round so the steady state is easy
// to reason about. bigPathAttack is its ideal satiation of 30% of the
// system.
func bigPathConfig(n int) Config {
	cfg := DefaultConfig()
	cfg.Nodes = n
	cfg.UpdatesPerRound = 1
	cfg.Lifetime = 8
	cfg.CopiesSeeded = 32
	cfg.Warmup = 0
	cfg.Rounds = 1 << 20 // effectively unbounded for the measured window
	return cfg
}

func bigPathAttack() Option {
	return WithAdversary(&attack.Strategy{Kind: attack.Ideal, Fraction: 0.02, SatiateFraction: 0.30})
}

// TestStepAllocsIndependentOfPopulation is the sparse-satiation acceptance
// test: once the engine's pools are primed, a steady-state round allocates
// nothing, at any population. The satiation path writes the holdings matrix
// New allocated, the exchanges count and move bits in its rows in place,
// and the O(Nodes) scratch (the exchange permutation, the seeding sample)
// is recycled. An O(Nodes) allocation anywhere would show at once at the
// larger populations.
func TestStepAllocsIndependentOfPopulation(t *testing.T) {
	for _, n := range []int{1024, 8192, 40_000} {
		e, err := New(bigPathConfig(n), 11, bigPathAttack())
		if err != nil {
			t.Fatal(err)
		}
		// Prime the pools: one full lifetime of updates plus slack.
		for i := 0; i < e.cfg.Lifetime+2; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state Step allocates %.0f objects at n=%d, want 0", allocs, n)
		}
	}
}
