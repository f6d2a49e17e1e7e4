package swarm

import (
	"fmt"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/simrng"
)

// checkRarityParity asserts the incrementally maintained rarity state — every
// node's per-piece neighbor-view counters and the global holder counts —
// equals a from-scratch recount of the current swarm state.
func checkRarityParity(t *testing.T, s *Sim) {
	t.Helper()
	row := make([]int, s.cfg.Pieces)
	for v := 0; v < s.n; v++ {
		s.recountRarityRow(v, row)
		for p := range row {
			if live := s.rarityAt(v, p); live != row[p] {
				t.Fatalf("tick %d node %d piece %d: maintained rarity %d, recount %d",
					s.tick, v, p, live, row[p])
			}
		}
	}
	holders := make([]int32, s.cfg.Pieces)
	s.recountHolders(holders)
	for p := range holders {
		if s.holders[p] != holders[p] {
			t.Fatalf("tick %d piece %d: maintained holders %d, recount %d",
				s.tick, p, s.holders[p], holders[p])
		}
	}
}

// runWithParityChecks steps the sim to completion, validating the rarity
// invariant at every tick boundary, and returns the Result.
func runWithParityChecks(t *testing.T, cfg Config, seed uint64, opts ...Option) Result {
	t.Helper()
	s, err := New(cfg, seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	checkRarityParity(t, s)
	for !s.Finished() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		checkRarityParity(t, s)
	}
	return s.finish()
}

// TestIncrementalRarityMatchesRescan is the incremental-vs-rescan parity
// suite: for every attack kind (the strategy layer's attack.Kind and both
// ranked targeting rules) and both piece-selection policies, the
// delta-maintained rarity counters must equal a from-scratch recount at
// every tick boundary. Every case additionally runs with uint16 counter rows
// forced (the fallback for degrees above 255; these configs naturally pick
// uint8) and both widths must produce the identical Result.
// The configs exercise every mutation source the deltas must cover: protocol
// transfers, endgame pulls, attacker fills, completion departures
// (SeedAfterComplete=false), and seed departure.
func TestIncrementalRarityMatchesRescan(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.Leechers = 48
		cfg.Pieces = 40
		cfg.PeerSetSize = 12
		cfg.Ticks = 150
		cfg.SeedDepartTick = 12
		cfg.SeedAfterComplete = false
		return cfg
	}
	type advCase struct {
		name string
		cfg  func() Config
		adv  func() *attack.Strategy
	}
	cases := []advCase{
		{"adv-none", base, nil},
		{"adv-crash", base, func() *attack.Strategy {
			return &attack.Strategy{Kind: attack.Crash, Fraction: 0.10}
		}},
		{"adv-ideal", base, func() *attack.Strategy {
			return &attack.Strategy{Kind: attack.Ideal, Fraction: 0.05, SatiateFraction: 0.35}
		}},
		{"adv-trade", base, func() *attack.Strategy {
			return &attack.Strategy{Kind: attack.Trade, Fraction: 0.10, SatiateFraction: 0.30, RotatePeriod: 7}
		}},
		{"cfg-attack-top", func() Config {
			cfg := base()
			cfg.AttackerUplink = 12
			return cfg
		}, func() *attack.Strategy {
			return rankedStrategy(base().Leechers, attack.RankUploaders, 4, 0, 0)
		}},
		{"cfg-attack-rare", func() Config {
			cfg := base()
			cfg.AttackerUplink = 8
			return cfg
		}, func() *attack.Strategy {
			return rankedStrategy(base().Leechers, attack.RankRarest, 3, 4, 60)
		}},
	}
	for _, c := range cases {
		for _, sel := range []Selection{SelectRandom, SelectRarestFirst} {
			// Every pass of a tick is sequential; the parallel=false suffix
			// keeps the subtest names stable.
			t.Run(fmt.Sprintf("%s/%v/parallel=false", c.name, sel), func(t *testing.T) {
				cfg := c.cfg()
				cfg.Selection = sel
				// mkOpts builds a fresh option set per run: the adversary
				// carries state, so narrow and wide must each get their own
				// instance.
				mkOpts := func(extra ...Option) []Option {
					if c.adv != nil {
						extra = append(extra, WithAdversary(c.adv()))
					}
					return extra
				}
				narrow := runWithParityChecks(t, cfg, 42, mkOpts()...)
				wide := runWithParityChecks(t, cfg, 42, mkOpts(WithWideRarity())...)
				if narrow != wide {
					t.Fatalf("uint16 rarity rows diverged from uint8:\n%+v\nvs\n%+v", wide, narrow)
				}
			})
		}
	}
}

// TestIncrementalRarityProperty is the property-test half of the parity
// suite: random small configurations — population, piece count, peer-set
// size, rotation, endgame, departure behavior, attack choice — each run to
// completion with the rarity invariant recounted at every tick boundary,
// and with the uint8 and uint16 counter rows required to agree on the final
// Result.
func TestIncrementalRarityProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	rng := simrng.New(2026)
	for trial := 0; trial < 25; trial++ {
		cfg := DefaultConfig()
		cfg.Leechers = 10 + rng.IntN(60)
		cfg.Pieces = 1 + rng.IntN(70)
		cfg.UploadSlots = 1 + rng.IntN(5)
		cfg.RotateInterval = 1 + rng.IntN(5)
		cfg.PeerSetSize = 2 + rng.IntN(14)
		cfg.Ticks = 40 + rng.IntN(120)
		cfg.Selection = SelectRandom
		if rng.Bool(0.5) {
			cfg.Selection = SelectRarestFirst
		}
		cfg.RandomFirstCount = rng.IntN(4)
		cfg.Endgame = rng.Bool(0.7)
		cfg.EndgameThreshold = 1 + rng.IntN(4)
		if rng.Bool(0.5) {
			cfg.SeedDepartTick = 1 + rng.IntN(30)
		}
		cfg.SeedAfterComplete = rng.Bool(0.5)

		var mkAdv func() *attack.Strategy
		switch pick := rng.IntN(6); pick {
		case 1, 2:
			// A ranked attack, drawn outside the closure: both counter
			// widths must face the identical adversary.
			rank, leechers := attack.RankUploaders, cfg.Leechers
			cfg.AttackerUplink = 1 + rng.IntN(16)
			k, start, stop := 1+rng.IntN(5), rng.IntN(10), 0
			if pick == 2 {
				rank, stop = attack.RankRarest, start+20+rng.IntN(40)
			}
			mkAdv = func() *attack.Strategy { return rankedStrategy(leechers, rank, k, start, stop) }
		case 3:
			mkAdv = func() *attack.Strategy {
				return &attack.Strategy{Kind: attack.Crash, Fraction: 0.15}
			}
		case 4:
			mkAdv = func() *attack.Strategy {
				return &attack.Strategy{Kind: attack.Ideal, Fraction: 0.08, SatiateFraction: 0.4}
			}
		case 5:
			// Drawn outside the closure: mkAdv runs once per counter
			// width, and both widths must face the identical adversary.
			rotate := 1 + rng.IntN(8)
			mkAdv = func() *attack.Strategy {
				return &attack.Strategy{Kind: attack.Trade, Fraction: 0.12, SatiateFraction: 0.3, RotatePeriod: rotate}
			}
		}
		seed := rng.Uint64()
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			// Every trial config has PeerSetSize ≤ 16, so the first run
			// naturally picks uint8 rarity rows; the second forces the
			// uint16 fallback on the same config and must agree
			// bit-for-bit.
			variants := []struct {
				name string
				opts []Option
			}{
				{"narrow rarity", nil},
				{"wide rarity", []Option{WithWideRarity()}},
			}
			results := make([]Result, len(variants))
			for i, vr := range variants {
				opts := vr.opts
				if mkAdv != nil {
					opts = append(opts[:len(opts):len(opts)], WithAdversary(mkAdv()))
				}
				results[i] = runWithParityChecks(t, cfg, seed, opts...)
			}
			for i := 1; i < len(results); i++ {
				if results[i] != results[0] {
					t.Fatalf("%s evaluation diverged from %s:\n%+v\nvs\n%+v",
						variants[i].name, variants[0].name, results[i], results[0])
				}
			}
		})
	}
}

// TestRarityWidthSelection pins the storage-width choice itself: uint8
// rarity rows when the maximum degree fits uint8 (halving the two counter
// arenas), the uint16 fallback above 255 or under WithWideRarity.
func TestRarityWidthSelection(t *testing.T) {
	small := DefaultConfig()
	small.Leechers = 40
	small.Pieces = 24
	small.PeerSetSize = 10
	small.Ticks = 60

	s, err := New(small, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s.wideRarity || s.rarity8 == nil || s.rarity16 != nil {
		t.Fatalf("max degree ≤ 255 must pick uint8 rarity rows")
	}
	forced, err := New(small, 7, WithWideRarity())
	if err != nil {
		t.Fatal(err)
	}
	if !forced.wideRarity || forced.rarity16 == nil || forced.rarity8 != nil {
		t.Fatalf("WithWideRarity must force uint16 rarity rows")
	}

	big := DefaultConfig()
	big.Leechers = 600
	big.PeerSetSize = 520 // degree 260 > 255: uint8 counters could overflow
	big.Pieces = 8
	big.Ticks = 3
	b, err := New(big, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !b.wideRarity || b.rarity16 == nil {
		t.Fatalf("degree above 255 must fall back to uint16 rarity rows")
	}
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
}
