package tokenmodel

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

// goldenCase is one pinned token run: a config, an attack (Kind 0 runs
// unattacked), a per-peer rate limit (0 for none) and a seed.
type goldenCase struct {
	name      string
	cfg       Config
	adv       attack.Strategy
	rateLimit int
	seed      uint64
}

// goldenShape is x/trade-token's replicate: 96 nodes on a degree-4 random
// graph, 24 tokens, 2 contacts, 60 rounds.
func goldenShape(seed uint64) Config {
	return Config{
		Graph:    graph.Regularish(96, 4, simrng.New(seed).Child("graph")),
		Tokens:   24,
		Contacts: 2,
		Rounds:   60,
	}
}

// goldenCases spans x/trade-token's shape under every attack kind at three
// attacker fractions, token-altruism's shape at both ends of its sweep,
// rotation and a campaign window, a rate limit, churn over the whole run
// and churn that ends early, per-node classes, and rows of one token, one
// exact word, and spills into a second and third word.
func goldenCases() []goldenCase {
	var cases []goldenCase
	add := func(name string, seed uint64, mutate func(*goldenCase)) {
		c := goldenCase{name: name, cfg: goldenShape(seed), seed: seed}
		if mutate != nil {
			mutate(&c)
		}
		cases = append(cases, c)
	}
	attacked := func(kind attack.Kind, fraction float64) func(*goldenCase) {
		return func(c *goldenCase) {
			c.adv = attack.Strategy{Kind: kind, Fraction: fraction, SatiateFraction: 0.7}
		}
	}
	seed := uint64(1)
	for _, kind := range []attack.Kind{attack.None, attack.Crash, attack.Ideal, attack.Trade} {
		for _, fraction := range []float64{0, 0.2, 0.4} {
			add(fmt.Sprintf("%v-%g", kind, fraction), seed, attacked(kind, fraction))
			seed++
		}
	}
	for _, altruism := range []float64{0, 0.1} {
		add(fmt.Sprintf("altruism-%g", altruism), seed, func(c *goldenCase) {
			c.cfg.Graph = graph.Regularish(128, 4, simrng.New(c.seed).Child("graph"))
			c.cfg.Tokens = 32
			c.cfg.Rounds = 80
			c.cfg.Altruism = altruism
			c.adv = attack.Strategy{Kind: attack.Ideal, Fraction: 0.1, SatiateFraction: 0.5}
		})
		seed++
	}
	for _, kind := range []attack.Kind{attack.Ideal, attack.Trade} {
		add(fmt.Sprintf("%v-rotate", kind), seed, func(c *goldenCase) {
			attacked(kind, 0.2)(c)
			c.adv.RotatePeriod = 7
		})
		add(fmt.Sprintf("%v-window", kind), seed+1, func(c *goldenCase) {
			attacked(kind, 0.2)(c)
			c.adv.Start, c.adv.Stop = 10, 40
		})
		add(fmt.Sprintf("%v-ratelimit", kind), seed+2, func(c *goldenCase) {
			attacked(kind, 0.2)(c)
			c.rateLimit = 1
		})
		add(fmt.Sprintf("%v-churn", kind), seed+3, func(c *goldenCase) {
			attacked(kind, 0.2)(c)
			c.cfg.Churn = population.Synthesize(population.Rates{LeaveRate: 0.02, JoinRate: 0.1}, 96, 60, 2, simrng.New(c.seed))
		})
		add(fmt.Sprintf("%v-churn-early", kind), seed+4, func(c *goldenCase) {
			attacked(kind, 0.2)(c)
			c.cfg.Churn = population.Synthesize(population.Rates{LeaveRate: 0.05, JoinRate: 0.2}, 96, 15, 2, simrng.New(c.seed))
		})
		seed += 5
	}
	add("per-node", seed, func(c *goldenCase) {
		attacked(attack.Trade, 0.2)(c)
		n := c.cfg.Graph.N()
		c.cfg.NodeAltruism = make([]float64, n)
		c.cfg.NodeContacts = make([]int, n)
		for v := 0; v < n; v++ {
			if v%4 == 0 {
				c.cfg.NodeAltruism[v] = 0.2
			}
			c.cfg.NodeContacts[v] = v % 4
		}
	})
	seed++
	for _, tokens := range []int{1, 64, 65, 130} {
		add(fmt.Sprintf("tokens-%d", tokens), seed, func(c *goldenCase) {
			attacked(attack.Trade, 0.2)(c)
			c.cfg.Tokens = tokens
		})
		seed++
	}
	return cases
}

// options returns the case's adversary and defense as Sim options, fresh
// per run.
func (c goldenCase) options() []Option {
	var opts []Option
	if c.adv.Kind != 0 {
		adv := c.adv
		opts = append(opts, WithAdversary(&adv))
	}
	if c.rateLimit > 0 {
		opts = append(opts, WithDefense(defense.NewRateLimiter(c.rateLimit)))
	}
	return opts
}

// TestResultGoldens pins the model's exact outputs: every golden case's
// full Result must match testdata/results_golden.json. A rewrite of the
// round must reproduce these runs exactly, not merely statistically.
//
// Regenerate (only for an intentional behavior change, reviewed like code):
//
//	go test ./internal/tokenmodel -run TestResultGoldens -update
func TestResultGoldens(t *testing.T) {
	path := filepath.Join("testdata", "results_golden.json")
	got := map[string]Result{}
	for _, c := range goldenCases() {
		s, err := New(c.cfg, c.seed, c.options()...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = res
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
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
		t.Fatalf("%v (run `go test ./internal/tokenmodel -run TestResultGoldens -update` to create it)", err)
	}
	var want map[string]Result
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: missing from golden file", name)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, g, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: missing from run", name)
		}
	}
}
