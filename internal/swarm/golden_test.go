package swarm

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
	"lotuseater/internal/population"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenCase is one pinned swarm run: a config shape, an optional strategy
// adversary / defense, optional piece weights, and a seed. The matrix spans
// both selection policies, endgame on/off, seed departure, both ranked
// targeting rules, every attack.Strategy kind and a weighted rarest-first
// tie-break, so any behavioral drift in the simulator shows up as a golden
// mismatch.
type goldenCase struct {
	name    string
	cfg     Config
	adv     func() *attack.Strategy
	def     func() *defense.RateLimiter
	weights []float64
	seed    uint64
}

func goldenBase() Config {
	cfg := DefaultConfig()
	cfg.Leechers = 60
	cfg.Pieces = 48
	cfg.PeerSetSize = 16
	cfg.Ticks = 250
	return cfg
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	add := func(name string, mutate func(*Config), adv func() *attack.Strategy, def func() *defense.RateLimiter) {
		cfg := goldenBase()
		if mutate != nil {
			mutate(&cfg)
		}
		for _, seed := range []uint64{7, 8} {
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("%s/seed%d", name, seed),
				cfg:  cfg, adv: adv, def: def, seed: seed,
			})
		}
	}
	add("healthy-rarest", nil, nil, nil)
	add("healthy-random", func(c *Config) { c.Selection = SelectRandom }, nil, nil)
	add("no-endgame", func(c *Config) { c.Endgame = false }, nil, nil)
	add("seed-departs", func(c *Config) {
		c.SeedDepartTick = 8
		c.SeedAfterComplete = false
	}, nil, nil)
	leechers := goldenBase().Leechers
	add("cfg-attack-top", func(c *Config) { c.AttackerUplink = 16 }, func() *attack.Strategy {
		return rankedStrategy(leechers, attack.RankUploaders, 4, 0, 0)
	}, nil)
	add("cfg-attack-rare", func(c *Config) {
		c.AttackerUplink = 8
		c.SeedDepartTick = 10
		c.SeedAfterComplete = false
	}, func() *attack.Strategy {
		return rankedStrategy(leechers, attack.RankRarest, 3, 5, 80)
	}, nil)
	add("adv-crash", nil, func() *attack.Strategy {
		return &attack.Strategy{Kind: attack.Crash, Fraction: 0.10}
	}, nil)
	add("adv-ideal", nil, func() *attack.Strategy {
		return &attack.Strategy{Kind: attack.Ideal, Fraction: 0.05, SatiateFraction: 0.40}
	}, nil)
	add("adv-trade-rotating", nil, func() *attack.Strategy {
		return &attack.Strategy{Kind: attack.Trade, Fraction: 0.10, SatiateFraction: 0.30, RotatePeriod: 9}
	}, nil)
	add("adv-ideal-ratelimit", nil, func() *attack.Strategy {
		return &attack.Strategy{Kind: attack.Ideal, Fraction: 0.05, SatiateFraction: 0.40}
	}, func() *defense.RateLimiter { return defense.NewRateLimiter(2) })
	// Zipf piece popularity weights rarest-first's tie-break; the ideal
	// attack keeps a satiated, piece-rich population in the mix.
	zipf := population.ZipfWeights(goldenBase().Pieces, 1.0)
	for _, seed := range []uint64{7, 8} {
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("zipf-weights/seed%d", seed),
			cfg:  goldenBase(),
			adv: func() *attack.Strategy {
				return &attack.Strategy{Kind: attack.Ideal, Fraction: 0.05, SatiateFraction: 0.40}
			},
			weights: zipf, seed: seed,
		})
	}
	return cases
}

func runGoldenCase(t *testing.T, c goldenCase) Result {
	t.Helper()
	var opts []Option
	if c.adv != nil {
		opts = append(opts, WithAdversary(c.adv()))
	}
	if c.def != nil {
		opts = append(opts, WithDefense(c.def()))
	}
	if c.weights != nil {
		opts = append(opts, WithPieceWeights(c.weights))
	}
	s, err := New(c.cfg, c.seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestResultGoldens pins the simulator's exact outputs: every golden case's
// Result must match testdata/results_golden.json bit for bit. The goldens
// were generated by the pre-SoA, rescan-based implementation, so they gate
// the incremental-rarity and packed-layout rewrite on producing identical
// trajectories — not merely statistically similar ones.
//
// Regenerate (only for an intentional behavior change, reviewed like code):
//
//	go test ./internal/swarm -run TestResultGoldens -update
func TestResultGoldens(t *testing.T) {
	path := filepath.Join("testdata", "results_golden.json")
	got := map[string]Result{}
	for _, c := range goldenCases() {
		got[c.name] = runGoldenCase(t, c)
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
		t.Fatalf("%v (run `go test ./internal/swarm -run TestResultGoldens -update` to create it)", err)
	}
	var want map[string]Result
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
