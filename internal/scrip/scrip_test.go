package scrip

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"lotuseater/internal/attack"
	"lotuseater/internal/defense"
)

func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Agents = 50
	cfg.Rounds = 5000
	return cfg
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"too few agents", func(c *Config) { c.Agents = 1 }},
		{"zero threshold", func(c *Config) { c.Threshold = 0 }},
		{"negative money", func(c *Config) { c.MoneyPerCapita = -1 }},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }},
		{"altruists > 1", func(c *Config) { c.AltruistFraction = 1.1 }},
		{"cost >= 1", func(c *Config) { c.Cost = 1 }},
		{"special providers out of range", func(c *Config) { c.SpecialProviders = c.Agents + 1 }},
		{"special fraction without providers", func(c *Config) { c.SpecialRequestFraction = 0.5 }},
		{"negative attack budget", func(c *Config) { c.AttackBudget = -1 }},
	}
	for _, c := range cases {
		cfg := quickCfg()
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if Rational.String() != "rational" || Altruist.String() != "altruist" ||
		AttackerAgent.String() != "attacker" {
		t.Fatal("kind names wrong")
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Fatal("unknown kind string")
	}
}

func TestHealthyEconomyAvailability(t *testing.T) {
	sim, err := New(quickCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Availability < 0.5 {
		t.Fatalf("healthy economy availability %.3f", res.Availability)
	}
	if res.Requests != 5000 {
		t.Fatalf("requests %d", res.Requests)
	}
	if res.Served+res.FailedNoProvider+res.FailedNoMoney != res.Requests {
		t.Fatal("request accounting does not add up")
	}
}

// TestMoneyConservation: scrip is conserved absent attacker budget.
func TestMoneyConservation(t *testing.T) {
	cfg := quickCfg()
	sim, err := New(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	opening := sim.MoneySupply()
	if opening != cfg.Agents*cfg.MoneyPerCapita {
		t.Fatalf("opening supply %d", opening)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMoneySupply != opening {
		t.Fatalf("money not conserved: %d -> %d", opening, res.FinalMoneySupply)
	}
}

// TestMoneyConservationWithBudget: injected budget raises supply by exactly
// the budget.
func TestMoneyConservationWithBudget(t *testing.T) {
	cfg := quickCfg()
	cfg.AttackBudget = 500
	opening := cfg.Agents * cfg.MoneyPerCapita
	adv := &attack.Strategy{Kind: attack.Trade, TargetList: []int{1, 2, 3}}
	sim, err := New(cfg, 3, WithAdversary(adv))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMoneySupply != opening+500 {
		t.Fatalf("supply %d, want %d", res.FinalMoneySupply, opening+500)
	}
}

// TestMoneyConservationQuick is the money law for every attack kind: with
// any seed and exogenous budget, the none, crash and trade attacks close
// with exactly the opening supply (balances plus the attack pool), and the
// ideal attack, which mints what it tops targets up with, adds exactly its
// AttackerSpent. Budgets run from a pool that dries up mid-run to one that
// never does.
func TestMoneyConservationQuick(t *testing.T) {
	kinds := []attack.Kind{attack.None, attack.Crash, attack.Ideal, attack.Trade}
	err := quick.Check(func(seed uint64, budgetRaw uint16) bool {
		for _, kind := range kinds {
			cfg := quickCfg()
			cfg.Rounds = 500
			cfg.AttackBudget = int(budgetRaw % 512)
			adv := &attack.Strategy{Kind: kind, Fraction: 0.05, SatiateFraction: 0.5}
			sim, err := New(cfg, seed, WithAdversary(adv))
			if err != nil {
				return false
			}
			opening := sim.MoneySupply()
			if opening != cfg.Agents*cfg.MoneyPerCapita+cfg.AttackBudget {
				return false
			}
			res, err := sim.Run()
			if err != nil {
				return false
			}
			want := opening
			if kind == attack.Ideal {
				if res.AttackerSpent == 0 {
					return false // the minting law would hold vacuously
				}
				want += res.AttackerSpent
			}
			if res.FinalMoneySupply != want {
				t.Logf("%v, seed %d, budget %d: supply %d -> %d (spent %d)",
					kind, seed, cfg.AttackBudget, opening, res.FinalMoneySupply, res.AttackerSpent)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// TestThresholdSatiation: an agent held at threshold never provides, so a
// funded attack on all rational agents collapses paid service.
func TestFundedAttackSatiatesTargets(t *testing.T) {
	cfg := quickCfg()
	cfg.AttackBudget = 1 << 20
	targets := make([]int, 25)
	for i := range targets {
		targets[i] = i
	}
	sim, err := New(cfg, 4, WithAdversary(&attack.Strategy{Kind: attack.Trade, TargetList: targets}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SatiatedTargetFraction < 0.95 {
		t.Fatalf("funded attacker kept only %.3f of targets satiated", res.SatiatedTargetFraction)
	}
	if res.AttackerSpent == 0 {
		t.Fatal("attack spent nothing")
	}
}

// TestStrategyBudgetAndStart: a trade strategy with no agents of its own
// spends only its exogenous budget (which joins the money supply), and does
// nothing before its start round.
func TestStrategyBudgetAndStart(t *testing.T) {
	targets := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	run := func(budget, start int) Result {
		t.Helper()
		cfg := quickCfg()
		cfg.AttackBudget = budget
		adv := &attack.Strategy{Kind: attack.Trade, TargetList: targets, Start: start}
		sim, err := New(cfg, 6, WithAdversary(adv))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if want := cfg.Agents*cfg.MoneyPerCapita + budget; res.FinalMoneySupply != want {
			t.Fatalf("money supply %d, want %d", res.FinalMoneySupply, want)
		}
		return res
	}
	if res := run(0, 0); res.AttackerSpent != 0 {
		t.Fatalf("an unfunded attacker with no agents spent %d", res.AttackerSpent)
	}
	if res := run(200, 0); res.AttackerSpent == 0 || res.AttackerSpent > 200 {
		t.Fatalf("a 200-scrip budget spent %d", res.AttackerSpent)
	}
	if res := run(200, quickCfg().Rounds); res.AttackerSpent != 0 || res.SatiatedTargetFraction != 0 {
		t.Fatalf("attack before its start round: spent %d, satiated %.3f", res.AttackerSpent, res.SatiatedTargetFraction)
	}
}

// TestEarnedBudgetBounded: without exogenous budget, the attacker cannot
// keep a large fraction satiated (the money supply bound).
func TestEarnedBudgetBounded(t *testing.T) {
	cfg := quickCfg()
	adv := &attack.Strategy{Kind: attack.Trade, Fraction: 0.1, SatiateFraction: 0.6, Start: 500}
	sim, err := New(cfg, 5, WithAdversary(adv))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SatiatedTargetFraction > 0.6 {
		t.Fatalf("earned-only attacker satiated %.3f of 60%% of the economy", res.SatiatedTargetFraction)
	}
	if res.AttackerShortfall == 0 {
		t.Fatal("attacker never ran short of scrip")
	}
}

// TestAltruistsServeFree: with every provider an altruist, requests always
// succeed, nobody pays, and balances never change.
func TestAltruistsServeFree(t *testing.T) {
	cfg := quickCfg()
	cfg.AltruistFraction = 1
	sim, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Availability != 1 {
		t.Fatalf("all-altruist availability %.3f", res.Availability)
	}
	if res.ServedFree != res.Served {
		t.Fatalf("free %d != served %d", res.ServedFree, res.Served)
	}
	for i := 0; i < cfg.Agents; i++ {
		if sim.Balance(i) != cfg.MoneyPerCapita {
			t.Fatal("altruist economy moved money")
		}
	}
}

// TestBrokeRequesterNeedsAltruist: with zero money supply, only altruists
// can serve.
func TestBrokeRequesterNeedsAltruist(t *testing.T) {
	cfg := quickCfg()
	cfg.MoneyPerCapita = 0
	sim, err := New(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 0 {
		t.Fatalf("penniless economy served %d requests", res.Served)
	}
	if res.FailedNoMoney == 0 {
		t.Fatal("no money failures recorded")
	}
}

func TestSpecialtyRequests(t *testing.T) {
	cfg := quickCfg()
	cfg.SpecialProviders = 5
	cfg.SpecialRequestFraction = 0.3
	sim, err := New(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SpecialRequests == 0 {
		t.Fatal("no specialty requests issued")
	}
	frac := float64(res.SpecialRequests) / float64(res.Requests)
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("specialty fraction %.3f, want ~0.3", frac)
	}
	if res.SpecialServed > res.SpecialRequests {
		t.Fatal("served more specialty requests than issued")
	}
}

// TestRareProviderDenial: a funded attack on all specialty providers
// collapses specialty availability.
func TestRareProviderDenial(t *testing.T) {
	run := func(attacked bool) Result {
		cfg := quickCfg()
		cfg.SpecialProviders = 5
		cfg.SpecialRequestFraction = 0.05
		var opts []Option
		if attacked {
			cfg.AttackBudget = 1 << 20
			opts = append(opts, WithAdversary(&attack.Strategy{Kind: attack.Trade, TargetList: []int{0, 1, 2, 3, 4}}))
		}
		sim, err := New(cfg, 10, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(false)
	hit := run(true)
	if hit.SpecialAvailability >= base.SpecialAvailability {
		t.Fatalf("attack did not reduce specialty availability: %.3f >= %.3f",
			hit.SpecialAvailability, base.SpecialAvailability)
	}
	if hit.SpecialAvailability > 0.1 {
		t.Fatalf("satiated providers still served %.3f of specialty requests", hit.SpecialAvailability)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() Result {
		sim, err := New(quickCfg(), 42)
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

func TestUtilityAccounting(t *testing.T) {
	cfg := quickCfg()
	sim, err := New(cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Every served request adds 1 - Cost of social welfare; mean utility
	// must be positive in a functioning economy.
	if res.MeanUtility <= 0 {
		t.Fatalf("mean utility %.3f in a healthy economy", res.MeanUtility)
	}
}

func TestMint(t *testing.T) {
	cfg := quickCfg()
	sim, err := New(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	opening := sim.MoneySupply()
	if err := sim.Mint(3, 100); err != nil {
		t.Fatal(err)
	}
	if sim.Balance(3) != cfg.MoneyPerCapita+100 {
		t.Fatalf("balance %d after mint", sim.Balance(3))
	}
	if sim.MoneySupply() != opening+100 {
		t.Fatalf("supply %d, want %d", sim.MoneySupply(), opening+100)
	}
	if err := sim.Mint(-1, 5); err == nil {
		t.Fatal("out-of-range mint accepted")
	}
	if err := sim.Mint(0, -5); err == nil {
		t.Fatal("negative mint accepted")
	}
}

// TestInflationFreeze: lifting every balance to the threshold freezes the
// economy permanently — no volunteers, so no spending, so no recovery.
func TestInflationFreeze(t *testing.T) {
	cfg := quickCfg()
	sim, err := New(cfg, 21)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Agents; i++ {
		if err := sim.Mint(i, cfg.Threshold-cfg.MoneyPerCapita); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 0 {
		t.Fatalf("frozen economy served %d requests", res.Served)
	}
}

func TestAltruistProvidersForced(t *testing.T) {
	cfg := quickCfg()
	cfg.SpecialProviders = 5
	cfg.SpecialRequestFraction = 0.1
	cfg.AltruistProviders = 3
	sim, err := New(cfg, 22)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if sim.Kind(i) != Altruist {
			t.Fatalf("provider %d kind %v, want altruist", i, sim.Kind(i))
		}
	}
}

func TestAltruistProvidersValidation(t *testing.T) {
	cfg := quickCfg()
	cfg.SpecialProviders = 2
	cfg.SpecialRequestFraction = 0.1
	cfg.AltruistProviders = 3
	if err := cfg.Validate(); err == nil {
		t.Fatal("AltruistProviders > SpecialProviders accepted")
	}
}

// TestHoardersDrainEconomy: attacker agents that volunteer constantly and
// never spend centralize the money supply and crash availability.
func TestHoardersDrainEconomy(t *testing.T) {
	run := func(hoarders float64) float64 {
		adv := &attack.Strategy{Kind: attack.Trade, Fraction: hoarders}
		sim, err := New(quickCfg(), 23, WithAdversary(adv))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Availability
	}
	if with, without := run(0.2), run(0); with >= without-0.2 {
		t.Fatalf("hoarders did not crash availability: %.3f vs %.3f", with, without)
	}
}

func TestRunAfterHorizonErrors(t *testing.T) {
	cfg := quickCfg()
	cfg.Rounds = 5
	sim, err := New(cfg, 24)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Step(); err == nil {
		t.Fatal("stepped past horizon")
	}
}

func TestValidationAltruistProvidersNegative(t *testing.T) {
	cfg := quickCfg()
	cfg.SpecialProviders = 3
	cfg.SpecialRequestFraction = 0.1
	cfg.AltruistProviders = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative AltruistProviders accepted")
	}
}

// TestStepAllocsIndependentOfPopulation: a steady-state Step allocates
// nothing, at 100 agents or at 10,000: the candidate sets are sized in New,
// and the round's stream is reseeded in place.
func TestStepAllocsIndependentOfPopulation(t *testing.T) {
	for _, kind := range []attack.Kind{attack.None, attack.Trade, attack.Ideal} {
		for _, limit := range []int{0, 1} {
			t.Run(fmt.Sprintf("%v/limit=%d", kind, limit), func(t *testing.T) {
				testStepAllocs(t, kind, limit)
			})
		}
	}
}

func testStepAllocs(t *testing.T, kind attack.Kind, limit int) {
	measure := func(n int) float64 {
		cfg := DefaultConfig()
		cfg.Agents = n
		cfg.AltruistFraction = 0.1 // broke requesters retry among altruists
		cfg.Rounds = 1 << 20
		var opts []Option
		if kind != attack.None {
			opts = append(opts, WithAdversary(&attack.Strategy{Kind: kind, Fraction: 0.1, SatiateFraction: 0.5}))
		}
		if limit > 0 {
			opts = append(opts, WithDefense(defense.NewRateLimiter(limit)))
		}
		s, err := New(cfg, 5, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(500, func() {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := measure(100), measure(10000)
	if small != 0 || big != 0 {
		t.Fatalf("steady-state Step allocates %.0f objects at 100 agents and %.0f at 10000, want 0", small, big)
	}
}

// TestAllAttackerEconomyRefused: an adversary holding every agent leaves
// nobody to request service, so New refuses the economy for every attack
// kind. Before, New accepted it and the first Step drew requesters
// forever; the deadline turns such a regression into a failure.
func TestAllAttackerEconomyRefused(t *testing.T) {
	for _, kind := range []attack.Kind{attack.Crash, attack.Ideal, attack.Trade} {
		done := make(chan error, 1)
		go func() {
			cfg := quickCfg()
			cfg.Rounds = 10
			s, err := New(cfg, 1, WithAdversary(&attack.Strategy{Kind: kind, Fraction: 1, SatiateFraction: 0.5}))
			if err != nil {
				done <- nil
				return
			}
			_, err = s.Run()
			done <- fmt.Errorf("New accepted the economy; Run returned %v", err)
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: an all-attacker economy did not return within 10 s", kind)
		}
	}
}
