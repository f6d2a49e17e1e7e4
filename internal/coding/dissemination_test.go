package coding

import (
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/defense"
	"lotuseater/internal/graph"
	"lotuseater/internal/simrng"
)

func dissemConfig(coded bool) DisseminationConfig {
	return DisseminationConfig{
		Graph:       graph.Complete(30),
		Symbols:     8,
		PayloadSize: 16,
		Contacts:    2,
		Rounds:      40,
		Coded:       coded,
	}
}

func TestDisseminationValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*DisseminationConfig)
	}{
		{"nil graph", func(c *DisseminationConfig) { c.Graph = nil }},
		{"zero symbols", func(c *DisseminationConfig) { c.Symbols = 0 }},
		{"zero payload", func(c *DisseminationConfig) { c.PayloadSize = 0 }},
		{"negative contacts", func(c *DisseminationConfig) { c.Contacts = -1 }},
		{"zero rounds", func(c *DisseminationConfig) { c.Rounds = 0 }},
		{"allocation length", func(c *DisseminationConfig) { c.Allocation = []int{1} }},
	}
	for _, c := range cases {
		cfg := dissemConfig(false)
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}

func TestPlainDisseminationCompletes(t *testing.T) {
	sim, err := NewDissemination(dissemConfig(false), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFraction < 0.9 {
		t.Fatalf("plain completed %.3f", res.CompletedFraction)
	}
}

func TestCodedDisseminationCompletesAndDecodes(t *testing.T) {
	sim, err := NewDissemination(dissemConfig(true), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedFraction < 0.9 {
		t.Fatalf("coded completed %.3f", res.CompletedFraction)
	}
	if !res.DecodeVerified {
		t.Fatal("completed coded run did not verify a reconstruction")
	}
}

// TestRareSymbolDenialPlainVsCoded is experiment E6 in miniature: satiate
// the sole holder of symbol 0. Plain gossip loses the symbol for everyone;
// coded gossip is indifferent because every node's initial packet already
// mixes all symbols.
func TestRareSymbolDenialPlainVsCoded(t *testing.T) {
	const n = 30
	alloc := make([]int, n)
	alloc[0] = 0 // unique holder of symbol 0
	for v := 1; v < n; v++ {
		alloc[v] = 1 + (v-1)%7
	}

	run := func(coded bool) DisseminationResult {
		cfg := dissemConfig(coded)
		cfg.Allocation = alloc
		adv := &attack.Strategy{Kind: attack.Ideal, TargetList: []int{0}}
		sim, err := NewDissemination(cfg, 3, WithAdversary(adv))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(false)
	coded := run(true)
	if plain.CompletedFraction > 0.1 {
		t.Fatalf("plain mode completed %.3f despite rare-symbol denial", plain.CompletedFraction)
	}
	if coded.CompletedFraction < 0.9 {
		t.Fatalf("coded mode completed only %.3f under the same attack", coded.CompletedFraction)
	}
	if !coded.DecodeVerified {
		t.Fatal("coded completion not verified against sources")
	}
}

func TestDisseminationDeterministic(t *testing.T) {
	run := func() DisseminationResult {
		sim, err := NewDissemination(dissemConfig(true), 42)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if run() != run() {
		t.Fatal("same seed differs")
	}
}

func TestProgressBounds(t *testing.T) {
	sim, err := NewDissemination(dissemConfig(true), 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 30; v++ {
		p := sim.Progress(v)
		if p < 0 || p > 1 {
			t.Fatalf("progress %g", p)
		}
	}
}

// TestBadTargeterLength: an ideal Strategy shared by two simulations is
// placed for the second one's population, so the first one must refuse a
// target set over the wrong number of nodes at its first Step.
func TestBadTargeterLength(t *testing.T) {
	adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.1, SatiateFraction: 0.5}
	sim, err := NewDissemination(dissemConfig(false), 5, WithAdversary(adv))
	if err != nil {
		t.Fatal(err)
	}
	small := dissemConfig(false)
	small.Graph = graph.Complete(12)
	if _, err := NewDissemination(small, 5, WithAdversary(adv)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err == nil {
		t.Fatal("mismatched target set size accepted")
	}
}

// TestPlainStepAllocs: once the round scratch has grown, a plain-mode round
// allocates nothing, at 64 nodes and at 4,096, with and without a rate
// limit on the attacker's deliveries. 128 symbols at a cap of 1 keep the
// limited targets filling one symbol per round through the measured
// rounds, so satiateLimited runs in every one of them.
func TestPlainStepAllocs(t *testing.T) {
	for _, n := range []int{64, 4096} {
		for _, tc := range []struct {
			name string
			kind attack.Kind
			cap  int
		}{
			{"ideal", attack.Ideal, 0},
			{"ideal-limit1", attack.Ideal, 1},
			{"trade-limit1", attack.Trade, 1},
		} {
			cfg := DisseminationConfig{
				Graph:       graph.Regularish(n, 4, simrng.New(uint64(n)).Child("graph")),
				Symbols:     128,
				PayloadSize: 8,
				Contacts:    2,
				Rounds:      100,
			}
			adv := &attack.Strategy{Kind: tc.kind, Fraction: 0.10, SatiateFraction: 0.50}
			d, err := NewDissemination(cfg, 3, WithAdversary(adv), WithDefense(defense.NewRateLimiter(tc.cap)))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if err := d.Step(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := d.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("n=%d %s: a steady-state plain round allocates %.0f objects, want 0", n, tc.name, allocs)
			}
		}
	}
}
