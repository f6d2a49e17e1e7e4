package swarm

import (
	"testing"

	"lotuseater/internal/attack"
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
// once buffers are primed, a steady-state tick's allocations must be a
// small constant that does not grow with Leechers. Before the packed-layout
// rewrite every rotation re-sorted interested lists through a sort.Slice
// closure, the transfer pass rescanned rarity into per-node count buffers,
// and rare-piece targeting allocated a fresh holder-count array per attack
// step — all O(Leechers) or O(degree·pieces) heap traffic.
func TestSwarmStepAllocsIndependentOfPopulation(t *testing.T) {
	measure := func(n int) float64 {
		adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.02, SatiateFraction: 0.10}
		s, err := New(bigSwarmConfig(n), 11, WithEvalParallel(false), WithAdversary(adv))
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
		return testing.AllocsPerRun(50, func() {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(1024)
	big := measure(8192)
	// The absolute bound is loose (the per-tick RNG children allocate a
	// handful of objects); the point is the comparison: an O(Leechers)
	// allocation anywhere would blow it up immediately at the larger
	// population.
	if small > 96 {
		t.Fatalf("steady-state Step allocates %.0f objects at n=1024, want a small constant", small)
	}
	if big > small+16 {
		t.Fatalf("Step allocations grew with population: %.0f at n=1024 vs %.0f at n=8192", small, big)
	}
}

// TestShardedPassesRace drives every sim.ParallelFor pass in the swarm —
// unchoke scoring, the endgame/lifecycle leecher scans, the initial rarity
// build — at a population large enough that each pass actually
// splits into multiple shards (the small parity tests all fit in one shard
// and exercise nothing concurrent). Running it under `go test -race` is the
// point: it is the designated race gate for the widened parallel paths. It
// also pins bit-identity at sharded scale by comparing piece state and
// metrics against the forced-sequential run.
func TestShardedPassesRace(t *testing.T) {
	// Above evalParallelMinNodes and above the scanLeechers shard grain, so
	// both the scoring pass and the candidate scans fan out.
	const n = 40_000
	cfg := bigSwarmConfig(n)
	cfg.Ticks = 8
	adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.02, SatiateFraction: 0.10}
	run := func(parallel bool) *Sim {
		fresh := *adv
		s, err := New(cfg, 7, WithEvalParallel(parallel), WithAdversary(&fresh))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	par := run(true)
	seq := run(false)
	if par.res != seq.res {
		t.Fatalf("sharded run diverged from sequential:\n%+v\nvs\n%+v", par.res, seq.res)
	}
	for i := range par.pieceWords {
		if par.pieceWords[i] != seq.pieceWords[i] {
			t.Fatalf("piece state diverged at word %d (node %d)", i, i/par.wpn)
		}
	}
}
