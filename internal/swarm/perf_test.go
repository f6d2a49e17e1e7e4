package swarm

import (
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/population"
	"lotuseater/internal/simrng"
)

// bigSwarmConfig is the swarm-1m scenario shape shrunk to a test-sized
// population: small piece count and peer sets, ideal satiation of a slice
// of the swarm, completed leechers departing so the lifecycle and rarity
// subtraction paths stay busy.
func bigSwarmConfig(n int) Config {
	cfg := DefaultConfig()
	cfg.Leechers = n
	cfg.Pieces = 32
	cfg.PeerSetSize = 8
	cfg.Ticks = 1 << 20 // effectively unbounded for the measured window
	cfg.SeedAfterComplete = true
	return cfg
}

// TestSwarmStepAllocsIndependentOfPopulation locks in the SoA/pooling work:
// once buffers are primed, a steady-state tick allocates nothing, at any
// population. Before the packed-layout rewrite every rotation re-sorted
// interested lists through a sort.Slice closure, the transfer pass
// rescanned rarity into per-node count buffers, and rare-piece targeting
// allocated a fresh holder-count array per attack step — all O(Leechers) or
// O(degree·pieces) heap traffic. The tick's generator is reseeded in place.
func TestSwarmStepAllocsIndependentOfPopulation(t *testing.T) {
	for _, n := range []int{1024, 8192, 40_000} {
		adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.02, SatiateFraction: 0.10}
		s, err := New(bigSwarmConfig(n), 11, WithAdversary(adv))
		if err != nil {
			t.Fatal(err)
		}
		// Prime the pools: run past the first unchoke rotations so the
		// interested/unchoke structures and scratch buffers reach their
		// steady-state capacities.
		for i := 0; i < 3*s.cfg.RotateInterval+2; i++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state Step allocates %.0f objects at n=%d, want 0", allocs, n)
		}
	}
}

// BenchmarkNew measures one New at swarm-churn's shape in the churn-100k
// benchmark: 10⁵ leechers, 64 pieces, 16 ticks, a 10 % ideal attacker
// satiating 30 % of the leechers, and a churn schedule at that scenario's
// rates (leave 0.01, join 0.05).
func BenchmarkNew(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Leechers = 100_000
	cfg.Pieces = 64
	cfg.Ticks = 16
	events := population.Synthesize(population.Rates{LeaveRate: 0.01, JoinRate: 0.05},
		cfg.Leechers, cfg.Ticks, cfg.Leechers/10, simrng.New(1).Child("pop-churn"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.10, SatiateFraction: 0.30}
		if _, err := New(cfg, uint64(i)+1, WithAdversary(adv), WithChurn(events)); err != nil {
			b.Fatal(err)
		}
	}
}
