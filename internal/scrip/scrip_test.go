package scrip

import (
	"strings"
	"testing"
	"testing/quick"
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
		{"attackers < 0", func(c *Config) { c.AttackerFraction = -0.1 }},
		{"fractions exceed 1", func(c *Config) { c.AltruistFraction = 0.6; c.AttackerFraction = 0.6 }},
		{"cost >= 1", func(c *Config) { c.Cost = 1 }},
		{"special providers out of range", func(c *Config) { c.SpecialProviders = c.Agents + 1 }},
		{"special fraction without providers", func(c *Config) { c.SpecialRequestFraction = 0.5 }},
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
	sim, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	opening := sim.MoneySupply()
	if err := sim.Attack(AttackPlan{Targets: []int{1, 2, 3}, Budget: 500}); err != nil {
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

func TestMoneyConservationQuick(t *testing.T) {
	err := quick.Check(func(seed uint64, budgetRaw uint16) bool {
		cfg := quickCfg()
		cfg.Rounds = 500
		sim, err := New(cfg, seed)
		if err != nil {
			return false
		}
		budget := int(budgetRaw)
		opening := sim.MoneySupply()
		if err := sim.Attack(AttackPlan{Targets: []int{0, 5}, Budget: budget}); err != nil {
			return false
		}
		res, err := sim.Run()
		if err != nil {
			return false
		}
		return res.FinalMoneySupply == opening+budget
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Fatal(err)
	}
}

// TestThresholdSatiation: an agent held at threshold never provides, so a
// funded attack on all rational agents collapses paid service.
func TestFundedAttackSatiatesTargets(t *testing.T) {
	cfg := quickCfg()
	sim, err := New(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]int, 25)
	for i := range targets {
		targets[i] = i
	}
	if err := sim.Attack(AttackPlan{Targets: targets, Budget: 1 << 20}); err != nil {
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

// TestEarnedBudgetBounded: without exogenous budget, the attacker cannot
// keep a large fraction satiated (the money supply bound).
func TestEarnedBudgetBounded(t *testing.T) {
	cfg := quickCfg()
	cfg.AttackerFraction = 0.1
	sim, err := New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	var targets []int
	for i := 0; i < cfg.Agents && len(targets) < 30; i++ {
		if sim.Kind(i) != AttackerAgent {
			targets = append(targets, i)
		}
	}
	if err := sim.Attack(AttackPlan{Targets: targets, Budget: 0, StartRound: 500}); err != nil {
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

func TestAttackValidation(t *testing.T) {
	cfg := quickCfg()
	cfg.AttackerFraction = 0.1
	sim, err := New(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Attack(AttackPlan{Targets: []int{-1}}); err == nil {
		t.Fatal("negative target accepted")
	}
	if err := sim.Attack(AttackPlan{Targets: []int{cfg.Agents}}); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	var attacker int = -1
	for i := 0; i < cfg.Agents; i++ {
		if sim.Kind(i) == AttackerAgent {
			attacker = i
			break
		}
	}
	if attacker == -1 {
		t.Fatal("no attacker agent placed")
	}
	if err := sim.Attack(AttackPlan{Targets: []int{attacker}}); err == nil {
		t.Fatal("attacker-controlled target accepted")
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
		sim, err := New(cfg, 10)
		if err != nil {
			t.Fatal(err)
		}
		if attacked {
			if err := sim.Attack(AttackPlan{Targets: []int{0, 1, 2, 3, 4}, Budget: 1 << 20}); err != nil {
				t.Fatal(err)
			}
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
		cfg := quickCfg()
		cfg.AttackerFraction = hoarders
		sim, err := New(cfg, 23)
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

// TestStepAllocsIndependentOfPopulation: a steady-state Step reuses the
// volunteer and altruist buffers, so its allocations do not grow with the
// population; lists appended from nil each round would cost O(log Agents)
// growslice allocations per Step.
func TestStepAllocsIndependentOfPopulation(t *testing.T) {
	measure := func(n int) float64 {
		cfg := DefaultConfig()
		cfg.Agents = n
		cfg.AltruistFraction = 0.1 // broke requesters retry among altruists
		cfg.Rounds = 1 << 20
		s, err := New(cfg, 5)
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
	if big > small {
		t.Fatalf("Step allocations grew with population: %.0f at 100 agents vs %.0f at 10000", small, big)
	}
}
