package coding

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/defense"
	"lotuseater/internal/graph"
	"lotuseater/internal/population"
	"lotuseater/internal/simrng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenCase is one pinned dissemination run. cfg builds the configuration
// for a seed (the graph and any churn schedule are drawn from it), and adv
// and def build a fresh attack and limiter per run, since both carry state.
type goldenCase struct {
	name string
	cfg  func(seed uint64) DisseminationConfig
	adv  func() *attack.Strategy
	def  func() *defense.RateLimiter
}

// goldenConfig is a 48-node random graph of degree 4 with 12 symbols, the
// coding-ideal shape at half the population.
func goldenConfig(seed uint64) DisseminationConfig {
	const n = 48
	return DisseminationConfig{
		Graph:       graph.Regularish(n, 4, simrng.New(seed).Child("graph")),
		Symbols:     12,
		PayloadSize: 8,
		Contacts:    2,
		Rounds:      40,
	}
}

func idealAttack() *attack.Strategy {
	return &attack.Strategy{Kind: attack.Ideal, Fraction: 0.10, SatiateFraction: 0.50}
}

func limiter(perPeer int) func() *defense.RateLimiter {
	return func() *defense.RateLimiter { return defense.NewRateLimiter(perPeer) }
}

// goldenCases spans plain mode under every attack kind, the rate limiter at
// caps 1 and 4, churn, Zipf symbol weights, per-node contact budgets, an
// explicit rare allocation, a holdings row wider than one word, and two
// coded runs.
func goldenCases() []goldenCase {
	with := func(mutate func(*DisseminationConfig, uint64)) func(uint64) DisseminationConfig {
		return func(seed uint64) DisseminationConfig {
			cfg := goldenConfig(seed)
			mutate(&cfg, seed)
			return cfg
		}
	}
	return []goldenCase{
		{name: "plain-none", cfg: goldenConfig},
		{name: "plain-crash", cfg: goldenConfig, adv: func() *attack.Strategy {
			return &attack.Strategy{Kind: attack.Crash, Fraction: 0.15}
		}},
		{name: "plain-ideal", cfg: goldenConfig, adv: idealAttack},
		{name: "plain-trade", cfg: goldenConfig, adv: func() *attack.Strategy {
			return &attack.Strategy{Kind: attack.Trade, Fraction: 0.10, SatiateFraction: 0.50, RotatePeriod: 7}
		}},
		{name: "plain-ideal-limit1", cfg: goldenConfig, adv: idealAttack, def: limiter(1)},
		{name: "plain-ideal-limit4", cfg: goldenConfig, adv: idealAttack, def: limiter(4)},
		{name: "plain-trade-limit1", cfg: goldenConfig, adv: func() *attack.Strategy {
			return &attack.Strategy{Kind: attack.Trade, Fraction: 0.10, SatiateFraction: 0.50}
		}, def: limiter(1)},
		{name: "plain-churn", cfg: with(func(c *DisseminationConfig, seed uint64) {
			n := c.Graph.N()
			c.Churn = population.Synthesize(population.Rates{LeaveRate: 0.05, JoinRate: 0.20, Start: 2},
				n, c.Rounds, n/2, simrng.New(seed).Child("churn"))
		}), adv: idealAttack},
		{name: "plain-zipf", cfg: with(func(c *DisseminationConfig, _ uint64) {
			c.SymbolWeights = population.ZipfWeights(c.Symbols, 1.0)
		}), adv: idealAttack, def: limiter(4)},
		{name: "plain-classes", cfg: with(func(c *DisseminationConfig, _ uint64) {
			c.NodeContacts = make([]int, c.Graph.N())
			for v := range c.NodeContacts {
				c.NodeContacts[v] = v % 4
			}
		})},
		{name: "plain-allocation", cfg: with(func(c *DisseminationConfig, _ uint64) {
			// Node 0 is the only holder of symbol 0; the rest share 1..K-1.
			c.Allocation = make([]int, c.Graph.N())
			for v := 1; v < len(c.Allocation); v++ {
				c.Allocation[v] = 1 + (v-1)%(c.Symbols-1)
			}
		}), adv: func() *attack.Strategy {
			return &attack.Strategy{Kind: attack.Ideal, TargetList: []int{0}}
		}},
		{name: "plain-wide", cfg: with(func(c *DisseminationConfig, _ uint64) {
			c.Symbols = 100
			c.Contacts = 3
			c.Rounds = 60
			c.SymbolWeights = population.ZipfWeights(c.Symbols, 0.8)
		}), adv: idealAttack, def: limiter(2)},
		{name: "coded-none", cfg: with(func(c *DisseminationConfig, _ uint64) { c.Coded = true })},
		{name: "coded-ideal-limit2", cfg: with(func(c *DisseminationConfig, _ uint64) { c.Coded = true }),
			adv: idealAttack, def: limiter(2)},
	}
}

// goldenSeeds are the seeds every golden case runs at.
var goldenSeeds = []uint64{7, 8}

func runGoldenCase(t *testing.T, c goldenCase, seed uint64) DisseminationResult {
	t.Helper()
	var opts []DisseminationOption
	if c.adv != nil {
		opts = append(opts, WithAdversary(c.adv()))
	}
	if c.def != nil {
		opts = append(opts, WithDefense(c.def()))
	}
	d, err := NewDissemination(c.cfg(seed), seed, opts...)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	res, err := d.Run()
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return res
}

// TestResultGoldens pins the simulator's exact outputs: every golden case's
// DisseminationResult must match testdata/results_golden.json bit for bit,
// so a rewrite of the plain or coded kernels has to reproduce the same
// trajectories, not merely similar ones.
//
// Regenerate (only for an intentional behavior change, reviewed like code):
//
//	go test ./internal/coding -run TestResultGoldens -update
func TestResultGoldens(t *testing.T) {
	path := filepath.Join("testdata", "results_golden.json")
	got := map[string]DisseminationResult{}
	for _, c := range goldenCases() {
		for _, seed := range goldenSeeds {
			got[fmt.Sprintf("%s/seed%d", c.name, seed)] = runGoldenCase(t, c, seed)
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/coding -run TestResultGoldens -update` to create it)", err)
	}
	var want map[string]DisseminationResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for name, g := range got {
			if w, ok := want[name]; !ok || g != w {
				t.Errorf("%s:\n got %+v\nwant %+v", name, g, w)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s: missing from run", name)
			}
		}
	}
}
