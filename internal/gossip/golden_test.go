package gossip

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/population"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenCase is one pinned gossip run: a config shape, optional engine
// options, and a seed.
type goldenCase struct {
	name string
	cfg  Config
	opts func() []Option
	seed uint64
}

func goldenBase() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 60
	cfg.Rounds = 30
	cfg.Warmup = 5
	return cfg
}

// goldenChurn is a lifecycle schedule with leaves, rejoins, a double leave
// and a join of a present node (both no-ops), spread over the run.
func goldenChurn() []population.Event {
	return []population.Event{
		{Round: 2, Node: 4},
		{Round: 3, Node: 11},
		{Round: 3, Node: 4},
		{Round: 6, Node: 30},
		{Round: 7, Node: 11, Join: true},
		{Round: 9, Node: 52, Join: true},
		{Round: 12, Node: 4, Join: true},
		{Round: 14, Node: 0},
		{Round: 14, Node: 45},
		{Round: 18, Node: 30, Join: true},
		{Round: 21, Node: 0, Join: true},
		{Round: 23, Node: 17},
	}
}

// goldenCases spans every attack kind, the Figure 2/3 protocol knobs
// (push 10, slack 1), obedient rate limiting and report/evict, rotation,
// per-node altruism, churn, popularity-weighted seeding, per-node tracking,
// and live sets of one, two, three and more 64-bit words — including
// UpdatesPerRound >= 64, where one round's expiry drops more than a word.
func goldenCases() []goldenCase {
	var cases []goldenCase
	add := func(name string, seed uint64, mutate func(*Config), opts func() []Option) {
		cfg := goldenBase()
		if mutate != nil {
			mutate(&cfg)
		}
		cases = append(cases, goldenCase{name: name, cfg: cfg, opts: opts, seed: seed})
	}
	attacked := func(kind attack.Kind) func(*Config) {
		return func(c *Config) {
			c.Attack = kind
			c.AttackerFraction = 0.2
		}
	}
	add("none", 1, nil, nil)
	add("crash", 2, attacked(attack.Crash), nil)
	add("ideal", 3, attacked(attack.Ideal), nil)
	add("trade", 4, attacked(attack.Trade), nil)
	add("trade-push10", 5, func(c *Config) {
		attacked(attack.Trade)(c)
		c.PushSize = 10
	}, nil)
	add("ideal-push10", 6, func(c *Config) {
		attacked(attack.Ideal)(c)
		c.PushSize = 10
	}, nil)
	add("trade-slack1", 7, func(c *Config) {
		attacked(attack.Trade)(c)
		c.PushSize = 4
		c.BalanceSlack = 1
	}, nil)
	add("ideal-obedient-ratelimit", 8, func(c *Config) {
		attacked(attack.Ideal)(c)
		c.ObedientFraction = 0.6
		c.RateLimitPerPeer = 2
	}, nil)
	add("trade-obedient-report-evict", 9, func(c *Config) {
		attacked(attack.Trade)(c)
		c.ObedientFraction = 0.6
		c.ReportThreshold = 1
		c.EvictAfterReports = 2
	}, nil)
	add("trade-obedient-all-defenses", 10, func(c *Config) {
		attacked(attack.Trade)(c)
		c.PushSize = 4
		c.BalanceSlack = 1
		c.ObedientFraction = 0.5
		c.RateLimitPerPeer = 3
		c.ReportThreshold = 2
	}, nil)
	add("trade-rotate", 11, func(c *Config) {
		attacked(attack.Trade)(c)
		c.RotatePeriod = 7
	}, nil)
	add("ideal-rotate-track", 12, func(c *Config) {
		attacked(attack.Ideal)(c)
		c.RotatePeriod = 5
		c.TrackPerNode = true
	}, nil)
	add("none-track", 13, func(c *Config) { c.TrackPerNode = true }, nil)
	add("trade-altruism", 14, func(c *Config) {
		attacked(attack.Trade)(c)
		c.Altruism = 0.5
		c.AltruisticGive = 2
	}, nil)
	add("trade-node-altruism", 15, func(c *Config) {
		attacked(attack.Trade)(c)
		c.AltruisticGive = 3
	}, func() []Option {
		alt := make([]float64, 60)
		for v := range alt {
			alt[v] = float64(v%3) / 2
		}
		return []Option{WithNodeAltruism(alt)}
	})
	add("ideal-churn", 16, attacked(attack.Ideal), func() []Option {
		return []Option{WithChurn(goldenChurn())}
	})
	add("trade-churn", 17, attacked(attack.Trade), func() []Option {
		return []Option{WithChurn(goldenChurn())}
	})
	add("none-zipf", 18, nil, func() []Option {
		return []Option{WithUpdateWeights(population.ZipfWeights(8, 1.2))}
	})
	add("trade-zipf-churn", 19, attacked(attack.Trade), func() []Option {
		return []Option{
			WithUpdateWeights(population.ZipfWeights(5, 0.9)),
			WithChurn(goldenChurn()),
		}
	})
	// Live-set widths: Lifetime*UpdatesPerRound bits per node.
	add("words1-trade", 20, func(c *Config) {
		attacked(attack.Trade)(c)
		c.UpdatesPerRound = 3
		c.Lifetime = 8
		c.RecentWindow = 3
	}, nil)
	add("words1-exact-ideal", 21, func(c *Config) {
		attacked(attack.Ideal)(c)
		c.UpdatesPerRound = 16
		c.Lifetime = 4
	}, nil)
	add("words1-full-trade", 26, func(c *Config) {
		attacked(attack.Trade)(c)
		c.UpdatesPerRound = 64
		c.Lifetime = 1
		c.RecentWindow = 1
		c.CopiesSeeded = 20
	}, nil)
	add("words2-shift64-ideal", 27, func(c *Config) {
		attacked(attack.Ideal)(c)
		c.UpdatesPerRound = 64
		c.Lifetime = 3
		c.CopiesSeeded = 8
	}, nil)
	add("words2-exact-trade", 22, func(c *Config) {
		attacked(attack.Trade)(c)
		c.UpdatesPerRound = 16
		c.Lifetime = 8
		c.RecentWindow = 3
	}, nil)
	add("words3-trade-churn", 23, func(c *Config) {
		attacked(attack.Trade)(c)
		c.UpdatesPerRound = 20
		c.Lifetime = 8
		c.RecentWindow = 3
		c.PushSize = 10
	}, func() []Option {
		return []Option{WithChurn(goldenChurn())}
	})
	add("wide-trade", 24, func(c *Config) {
		attacked(attack.Trade)(c)
		c.UpdatesPerRound = 70
		c.Lifetime = 4
		c.CopiesSeeded = 6
		c.PushSize = 10
	}, nil)
	add("wide-ideal-obedient-churn", 25, func(c *Config) {
		attacked(attack.Ideal)(c)
		c.UpdatesPerRound = 130
		c.Lifetime = 3
		c.CopiesSeeded = 5
		c.ObedientFraction = 0.5
		c.RateLimitPerPeer = 4
		c.TrackPerNode = true
	}, func() []Option {
		return []Option{WithChurn(goldenChurn())}
	})
	return cases
}

func runGoldenCase(t *testing.T, c goldenCase, parallel bool) Result {
	t.Helper()
	opts := []Option{WithEvalParallel(parallel)}
	if c.opts != nil {
		opts = append(opts, c.opts()...)
	}
	return mustRun(t, c.cfg, c.seed, opts...)
}

// TestResultGoldens pins the engine's exact outputs: every golden case's
// full Result must match testdata/results_golden.json, with the sharded and
// sequential planning paths agreeing. A layout or scheduling rewrite of the
// engine must reproduce these trajectories exactly, not merely
// statistically.
//
// Regenerate (only for an intentional behavior change, reviewed like code):
//
//	go test ./internal/gossip -run TestResultGoldens -update
func TestResultGoldens(t *testing.T) {
	path := filepath.Join("testdata", "results_golden.json")
	got := map[string]Result{}
	for _, c := range goldenCases() {
		seq := runGoldenCase(t, c, false)
		par := runGoldenCase(t, c, true)
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s: sharded evaluation diverged from sequential:\n%+v\nvs\n%+v", c.name, seq, par)
		}
		got[c.name] = seq
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
		t.Fatalf("%v (run `go test ./internal/gossip -run TestResultGoldens -update` to create it)", err)
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
