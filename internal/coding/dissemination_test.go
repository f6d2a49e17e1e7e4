package coding

import (
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/graph"
	"lotuseater/internal/simrng"
)

// wrongSizeAdversary is a misbehaving custom adversary: it places no
// nodes and instantly satiates a target set over a universe of n nodes,
// whatever the simulation's population.
type wrongSizeAdversary struct{ n int }

func (a wrongSizeAdversary) Place(int, *simrng.Source) []int { return nil }
func (a wrongSizeAdversary) Targets(int) *attack.TargetSet   { return attack.NewTargetSet(a.n, nil) }
func (a wrongSizeAdversary) OnExchange(int, int, int) bool   { return false }
func (a wrongSizeAdversary) SatiatesInstantly() bool         { return true }

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

func TestBadTargeterLength(t *testing.T) {
	sim, err := NewDissemination(dissemConfig(false), 5, WithAdversary(wrongSizeAdversary{n: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("mismatched target set size accepted")
	}
}
