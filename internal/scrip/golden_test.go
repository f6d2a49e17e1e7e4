package scrip

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/defense"
	"lotuseater/internal/population"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenCase is one pinned scrip run: a config, an attack (Kind 0 runs
// unattacked), a rate limit on attacker top-ups (0 for none), mints applied
// between New and the first round, and a seed.
type goldenCase struct {
	name      string
	cfg       Config
	adv       attack.Strategy
	rateLimit int
	mints     [][2]int // {agent, amount}
	seed      uint64
}

func goldenBase() Config {
	cfg := DefaultConfig()
	cfg.Agents = 100
	cfg.Rounds = 3000
	cfg.AltruistFraction = 0.05
	return cfg
}

// goldenChurn is a rate-driven schedule over the whole run: targets leave
// (taking their satiation and wallets with them) and slots come back as
// fresh agents.
func goldenChurn(agents, rounds int) []population.Event {
	return population.Synthesize(population.Rates{LeaveRate: 0.004, JoinRate: 0.03}, agents, rounds, 2, simrng.New(77))
}

// goldenCases spans every attack kind, a rate limit, an exogenous budget
// and a broke trader, rotation and a campaign window, churn, the per-agent
// overrides, specialty requests served by forced altruists, Mint, and
// populations of 2, 63, 64, 65 and 130 agents, so the requester skip
// falls on and either side of 64-bit word boundaries.
func goldenCases() []goldenCase {
	var cases []goldenCase
	add := func(name string, seed uint64, mutate func(*goldenCase)) {
		c := goldenCase{name: name, cfg: goldenBase(), seed: seed}
		if mutate != nil {
			mutate(&c)
		}
		cases = append(cases, c)
	}
	attacked := func(kind attack.Kind) func(*goldenCase) {
		return func(c *goldenCase) {
			c.adv = attack.Strategy{Kind: kind, Fraction: 0.1, SatiateFraction: 0.5}
		}
	}
	add("none", 1, nil)
	add("crash", 2, attacked(attack.Crash))
	add("ideal", 3, attacked(attack.Ideal))
	add("trade", 4, attacked(attack.Trade))
	add("trade-ratelimit", 5, func(c *goldenCase) {
		attacked(attack.Trade)(c)
		c.rateLimit = 1
	})
	add("ideal-ratelimit", 6, func(c *goldenCase) {
		attacked(attack.Ideal)(c)
		c.rateLimit = 1
	})
	add("trade-budget", 7, func(c *goldenCase) {
		attacked(attack.Trade)(c)
		c.cfg.AttackBudget = 150
	})
	add("trade-broke", 8, func(c *goldenCase) {
		c.adv = attack.Strategy{Kind: attack.Trade, Fraction: 0.05, SatiateFraction: 0.9}
		c.cfg.MoneyPerCapita = 1
	})
	add("trade-broke-ratelimit", 9, func(c *goldenCase) {
		c.adv = attack.Strategy{Kind: attack.Trade, Fraction: 0.05, SatiateFraction: 0.9}
		c.cfg.MoneyPerCapita = 1
		c.rateLimit = 2
	})
	add("trade-rotate", 10, func(c *goldenCase) {
		attacked(attack.Trade)(c)
		c.adv.RotatePeriod = 150
	})
	add("ideal-window", 11, func(c *goldenCase) {
		attacked(attack.Ideal)(c)
		c.adv.Start, c.adv.Stop = 500, 2000
	})
	add("trade-churn", 12, func(c *goldenCase) {
		attacked(attack.Trade)(c)
		c.cfg.Churn = goldenChurn(c.cfg.Agents, c.cfg.Rounds)
	})
	add("ideal-churn", 13, func(c *goldenCase) {
		attacked(attack.Ideal)(c)
		c.cfg.Churn = goldenChurn(c.cfg.Agents, c.cfg.Rounds)
	})
	add("per-node", 14, func(c *goldenCase) {
		attacked(attack.Trade)(c)
		n := c.cfg.Agents
		c.cfg.NodeThreshold = make([]int, n)
		c.cfg.NodeBalance = make([]int, n)
		c.cfg.NodeAltruist = make([]float64, n)
		for i := 0; i < n; i++ {
			c.cfg.NodeThreshold[i] = 2 + i%7
			c.cfg.NodeBalance[i] = i % 4
			c.cfg.NodeAltruist[i] = float64(i%5) * 0.05
		}
	})
	add("specialty", 15, func(c *goldenCase) {
		attacked(attack.Trade)(c)
		c.cfg.SpecialProviders = 12
		c.cfg.SpecialRequestFraction = 0.3
		c.cfg.AltruistProviders = 3
		c.cfg.MoneyPerCapita = 1
	})
	add("specialty-satiated", 17, func(c *goldenCase) {
		c.adv = attack.Strategy{Kind: attack.Ideal, Fraction: 0.05, TargetList: []int{1, 2, 3}}
		c.cfg.SpecialProviders = 4
		c.cfg.SpecialRequestFraction = 0.4
		c.cfg.AltruistProviders = 1
		c.cfg.AltruistFraction = 0
		c.cfg.Threshold = 2
		c.cfg.MoneyPerCapita = 0
		c.cfg.NodeBalance = make([]int, c.cfg.Agents)
		for i := range c.cfg.NodeBalance {
			c.cfg.NodeBalance[i] = i % 3
		}
	})
	add("mint", 16, func(c *goldenCase) {
		attacked(attack.Ideal)(c)
		c.mints = [][2]int{{0, 7}, {3, 1}, {50, 12}, {99, 4}}
	})
	for i, n := range []int{2, 63, 64, 65, 130} {
		add("agents-"+strconv.Itoa(n), uint64(20+i), func(c *goldenCase) {
			c.cfg.Agents = n
			c.cfg.AltruistFraction = 0.2
			c.cfg.MoneyPerCapita = 1
			if n > 2 {
				attacked(attack.Trade)(c)
			}
		})
	}
	return cases
}

// hooks returns the case's adversary and defense, fresh per run; each is a
// nil interface when the case has none.
func (c goldenCase) hooks() (adv sim.Adversary, def sim.Defense) {
	if c.adv.Kind != 0 {
		a := c.adv
		adv = &a
	}
	if c.rateLimit > 0 {
		def = defense.NewRateLimiter(c.rateLimit)
	}
	return adv, def
}

// options returns the case's hooks as Sim options.
func (c goldenCase) options() []Option {
	var opts []Option
	adv, def := c.hooks()
	if adv != nil {
		opts = append(opts, WithAdversary(adv))
	}
	if def != nil {
		opts = append(opts, WithDefense(def))
	}
	return opts
}

// build makes the case's Sim with its mints applied.
func (c goldenCase) build(t *testing.T, seed uint64) *Sim {
	t.Helper()
	s, err := New(c.cfg, seed, c.options()...)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	for _, m := range c.mints {
		if err := s.Mint(m[0], m[1]); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	return s
}

// TestResultGoldens pins the economy's exact outputs: every golden case's
// full Result must match testdata/results_golden.json. A rewrite of the
// round must reproduce these runs exactly, not merely statistically.
//
// Regenerate (only for an intentional behavior change, reviewed like code):
//
//	go test ./internal/scrip -run TestResultGoldens -update
func TestResultGoldens(t *testing.T) {
	path := filepath.Join("testdata", "results_golden.json")
	got := map[string]Result{}
	for _, c := range goldenCases() {
		res, err := c.build(t, c.seed).Run()
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
		t.Fatalf("%v (run `go test ./internal/scrip -run TestResultGoldens -update` to create it)", err)
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
