package gossip

import (
	"reflect"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/sim"
)

// bigPathConfig is the shape the gossip-1m scenario uses, shrunk to a
// test-sized population: one update per round so the steady state is easy
// to reason about, ideal satiation of 30% of the system.
func bigPathConfig(n int) Config {
	cfg := DefaultConfig()
	cfg.Nodes = n
	cfg.UpdatesPerRound = 1
	cfg.Lifetime = 8
	cfg.CopiesSeeded = 32
	cfg.Warmup = 0
	cfg.Rounds = 1 << 20 // effectively unbounded for the measured window
	cfg.Attack = attack.Ideal
	cfg.AttackerFraction = 0.02
	cfg.SatiateFraction = 0.30
	return cfg
}

// TestStepAllocsIndependentOfPopulation is the sparse-satiation acceptance
// test: once the engine's pools are primed, a steady-state round's
// allocations must not grow with the population — the satiation and
// planning paths are O(|satiated set|) updates into pooled storage, and
// everything O(Nodes) (permutations, pairing lists, needs buffers) is
// recycled, and the holdings matrix is allocated once in New.
func TestStepAllocsIndependentOfPopulation(t *testing.T) {
	measure := func(n int) float64 {
		e, err := New(bigPathConfig(n), 11, WithEvalParallel(false))
		if err != nil {
			t.Fatal(err)
		}
		// Prime the pools: one full lifetime of updates plus slack.
		for i := 0; i < e.cfg.Lifetime+2; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(50, func() {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(1024)
	big := measure(8192)
	// The absolute bound is loose (per-round RNG children and seeding's
	// sample allocate a handful of objects); the point is the comparison:
	// an O(Nodes) allocation anywhere would blow it up immediately at the
	// larger population.
	if small > 96 {
		t.Fatalf("steady-state Step allocates %.0f objects at n=1024, want a small constant", small)
	}
	if big > small+16 {
		t.Fatalf("Step allocations grew with population: %.0f at n=1024 vs %.0f at n=8192", small, big)
	}
}

// TestEvalParallelBitIdentical extends the workers-parity guarantee to the
// in-replicate sharded planning path: an engine with the evaluation scan
// forced onto sim.ParallelFor must produce exactly the result of the
// sequential scan, for every attack kind. The population spans three full
// sim.DefaultGrain shards plus a ragged fourth, so the scan really fans
// out (below one grain ParallelFor runs inline) and -race sees the shards.
func TestEvalParallelBitIdentical(t *testing.T) {
	for _, kind := range []attack.Kind{attack.None, attack.Crash, attack.Ideal, attack.Trade} {
		cfg := DefaultConfig()
		cfg.Nodes = 3*sim.DefaultGrain + 123
		cfg.Rounds = 14
		cfg.Warmup = 2
		cfg.Attack = kind
		cfg.AttackerFraction = 0.15
		cfg.RotatePeriod = 7 // cover epoch re-draws mid-run
		run := func(parallel bool) Result {
			e, err := New(cfg, 23, WithEvalParallel(parallel))
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		seq, par := run(false), run(true)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%v: sharded evaluation diverged from sequential:\n%+v\nvs\n%+v", kind, seq, par)
		}
	}
}
