package gossip

import (
	"math"
	"strings"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/defense"
	"lotuseater/internal/metrics"
)

// quickConfig returns a reduced-size configuration that still exhibits the
// protocol's dynamics, for tests that run many simulations.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 100
	cfg.Rounds = 35
	cfg.Warmup = 10
	return cfg
}

// withAttack returns a fresh adversary option: kind controls fraction of
// the nodes and targets the paper's 70% of the system for satiation.
func withAttack(kind attack.Kind, fraction float64) Option {
	return WithAdversary(&attack.Strategy{Kind: kind, Fraction: fraction, SatiateFraction: 0.70})
}

// withRateLimit returns a fresh obedient-receiver rate limit of cap updates
// per peer per round.
func withRateLimit(cap int) Option {
	return WithDefense(defense.NewRateLimiter(cap))
}

func mustRun(t *testing.T, cfg Config, seed uint64, opts ...Option) Result {
	t.Helper()
	eng, err := New(cfg, seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"too few nodes", func(c *Config) { c.Nodes = 1 }},
		{"zero updates", func(c *Config) { c.UpdatesPerRound = 0 }},
		{"zero lifetime", func(c *Config) { c.Lifetime = 0 }},
		{"zero copies", func(c *Config) { c.CopiesSeeded = 0 }},
		{"copies exceed nodes", func(c *Config) { c.CopiesSeeded = c.Nodes + 1 }},
		{"negative push", func(c *Config) { c.PushSize = -1 }},
		{"negative slack", func(c *Config) { c.BalanceSlack = -1 }},
		{"zero recent window", func(c *Config) { c.RecentWindow = 0 }},
		{"recent window exceeds lifetime", func(c *Config) { c.RecentWindow = c.Lifetime + 1 }},
		{"zero rounds", func(c *Config) { c.Rounds = 0 }},
		{"warmup >= rounds", func(c *Config) { c.Warmup = c.Rounds }},
		{"negative warmup", func(c *Config) { c.Warmup = -1 }},
		{"horizon too short", func(c *Config) { c.Rounds, c.Warmup = 20, 15 }},
		{"threshold > 1", func(c *Config) { c.UsableThreshold = 1.5 }},
		{"altruism > 1", func(c *Config) { c.Altruism = 2 }},
		{"negative altruistic give", func(c *Config) { c.AltruisticGive = -1 }},
		{"obedient fraction > 1", func(c *Config) { c.ObedientFraction = 1.01 }},
		{"negative report threshold", func(c *Config) { c.ReportThreshold = -1 }},
		{"zero evict threshold", func(c *Config) { c.EvictAfterReports = 0 }},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("%s: validation passed", c.name)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestHorizonTooShort(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 20
	cfg.Warmup = 15 // measEnd = 20-10 = 10 < 15
	if _, err := New(cfg, 1); err == nil {
		t.Fatal("accepted horizon with empty measurement window")
	}
}

func TestTable1Defaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes != 250 || cfg.UpdatesPerRound != 10 || cfg.Lifetime != 10 ||
		cfg.CopiesSeeded != 12 || cfg.PushSize != 2 {
		t.Fatalf("Table 1 drift: %+v", cfg)
	}
	if cfg.UsableThreshold != 0.93 {
		t.Fatalf("usability threshold %g, want 0.93", cfg.UsableThreshold)
	}
}

func TestBaselineDeliversNearPerfect(t *testing.T) {
	res := mustRun(t, quickConfig(), 1)
	if res.Isolated.MeanDelivery < 0.95 {
		t.Fatalf("healthy system delivered %.4f to honest nodes", res.Isolated.MeanDelivery)
	}
	if !res.Usable() {
		t.Fatal("healthy system not usable")
	}
	if res.MeasuredUpdates == 0 {
		t.Fatal("no measured updates")
	}
	if res.Bandwidth.UsefulSent == 0 {
		t.Fatal("no updates exchanged")
	}
	if res.Bandwidth.AttackerSent != 0 {
		t.Fatal("attacker bandwidth without an attack")
	}
}

func TestDeterministicReplay(t *testing.T) {
	cfg := quickConfig()
	a := mustRun(t, cfg, 7, withAttack(attack.Trade, 0.2))
	b := mustRun(t, cfg, 7, withAttack(attack.Trade, 0.2))
	if a.Isolated != b.Isolated || a.Satiated != b.Satiated || a.Bandwidth != b.Bandwidth {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a.Isolated, b.Isolated)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := quickConfig()
	a := mustRun(t, cfg, 7, withAttack(attack.Trade, 0.2))
	b := mustRun(t, cfg, 8, withAttack(attack.Trade, 0.2))
	if a.Isolated.MeanDelivery == b.Isolated.MeanDelivery && a.Bandwidth == b.Bandwidth {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

// TestAttackOrdering reproduces the core qualitative result of Figure 1: at
// a fixed attacker fraction, the ideal lotus-eater hurts most, then trade,
// then crash.
func TestAttackOrdering(t *testing.T) {
	cfg := quickConfig()
	delivery := map[attack.Kind]float64{}
	for _, kind := range []attack.Kind{attack.Crash, attack.Ideal, attack.Trade} {
		sum := 0.0
		const seeds = 3
		for s := uint64(0); s < seeds; s++ {
			sum += mustRun(t, cfg, 100+s, withAttack(kind, 0.2)).Isolated.MeanDelivery
		}
		delivery[kind] = sum / seeds
	}
	if !(delivery[attack.Ideal] < delivery[attack.Trade]) {
		t.Fatalf("ideal (%.4f) should hurt more than trade (%.4f)", delivery[attack.Ideal], delivery[attack.Trade])
	}
	if !(delivery[attack.Trade] < delivery[attack.Crash]) {
		t.Fatalf("trade (%.4f) should hurt more than crash (%.4f)", delivery[attack.Trade], delivery[attack.Crash])
	}
}

// TestSatiatedNodesServedPerfectly checks the paper's observation that "
// satiated nodes receive near perfect service" under the ideal attack.
func TestSatiatedNodesServedPerfectly(t *testing.T) {
	res := mustRun(t, quickConfig(), 3, withAttack(attack.Ideal, 0.1))
	if res.Satiated.MeanDelivery < 0.97 {
		t.Fatalf("satiated group delivery %.4f, want near perfect", res.Satiated.MeanDelivery)
	}
	if res.Satiated.MeanDelivery <= res.Isolated.MeanDelivery {
		t.Fatal("satiated group should fare better than isolated group")
	}
}

// TestLargerPushBluntsIdealAttack reproduces Figure 2's direction: at the
// same attacker fraction, push size 10 delivers more to isolated nodes than
// push size 2.
func TestLargerPushBluntsIdealAttack(t *testing.T) {
	avg := func(push int) float64 {
		cfg := quickConfig()
		cfg.PushSize = push
		sum := 0.0
		const seeds = 3
		for s := uint64(0); s < seeds; s++ {
			sum += mustRun(t, cfg, 40+s, withAttack(attack.Ideal, 0.06)).Isolated.MeanDelivery
		}
		return sum / seeds
	}
	small, large := avg(2), avg(10)
	if large <= small {
		t.Fatalf("push 10 (%.4f) should beat push 2 (%.4f)", large, small)
	}
}

// TestUnbalancedExchangesHelp reproduces Figure 3's direction: slack 1
// improves isolated delivery under the trade attack.
func TestUnbalancedExchangesHelp(t *testing.T) {
	avg := func(slack int) float64 {
		cfg := quickConfig()
		cfg.BalanceSlack = slack
		sum := 0.0
		const seeds = 3
		for s := uint64(0); s < seeds; s++ {
			sum += mustRun(t, cfg, 60+s, withAttack(attack.Trade, 0.25)).Isolated.MeanDelivery
		}
		return sum / seeds
	}
	balanced, unbalanced := avg(0), avg(1)
	if unbalanced <= balanced {
		t.Fatalf("slack 1 (%.4f) should beat slack 0 (%.4f)", unbalanced, balanced)
	}
}

// TestIdealAttackerReceivesFractionOfUpdates checks the seeding model
// against the paper's arithmetic: with 12 copies seeded and 4% attacker
// nodes, the attacker receives ~1-(1-0.04)^12 = 39% of updates. We verify
// via the satiated group's free delivery being well above the attacker
// fraction alone.
func TestIdealPartialSatiation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 40
	res := mustRun(t, cfg, 5, withAttack(attack.Ideal, 0.04))
	// Partial satiation must still be very damaging (the paper's point):
	// delivery to isolated nodes drops although the attacker sees only 39%
	// of updates.
	if res.Isolated.MeanDelivery > 0.95 {
		t.Fatalf("partial satiation did nothing: %.4f", res.Isolated.MeanDelivery)
	}
}

func TestCrashAttackBaseline(t *testing.T) {
	res := mustRun(t, quickConfig(), 9, withAttack(attack.Crash, 0.2))
	// All honest nodes are "isolated" under crash (nobody is satiated).
	if res.Satiated.Nodes != 0 {
		t.Fatalf("crash attack has %d satiated nodes", res.Satiated.Nodes)
	}
	if res.Isolated.Nodes != 80 {
		t.Fatalf("isolated count %d, want 80", res.Isolated.Nodes)
	}
	if res.Bandwidth.AttackerSent != 0 {
		t.Fatal("crashed attackers uploaded")
	}
}

func TestStepAfterHorizonErrors(t *testing.T) {
	cfg := quickConfig()
	eng, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(); err == nil {
		t.Fatal("Step past horizon succeeded")
	}
}

func TestRolesAssignment(t *testing.T) {
	cfg := quickConfig()
	cfg.ObedientFraction = 0.4
	eng, err := New(cfg, 2, withAttack(attack.Trade, 0.25))
	if err != nil {
		t.Fatal(err)
	}
	roles := eng.Roles()
	counts := map[Role]int{}
	for _, r := range roles {
		counts[r]++
	}
	if counts[RoleAttacker] != 25 {
		t.Fatalf("attackers %d, want 25", counts[RoleAttacker])
	}
	if counts[RoleObedient] != 30 { // 40% of 75 honest
		t.Fatalf("obedient %d, want 30", counts[RoleObedient])
	}
	if counts[RoleHonest] != 45 {
		t.Fatalf("honest %d, want 45", counts[RoleHonest])
	}
}

func TestRoleStrings(t *testing.T) {
	if RoleHonest.String() != "honest" || RoleObedient.String() != "obedient" ||
		RoleAttacker.String() != "attacker" {
		t.Fatal("role names wrong")
	}
	if !strings.Contains(Role(42).String(), "42") {
		t.Fatal("unknown role string")
	}
}

// TestReportingEvictsOnlyAttackers: with the excess-based report trigger,
// honest nodes are never evicted, and most attackers are.
func TestReportingEvictsOnlyAttackers(t *testing.T) {
	cfg := quickConfig()
	cfg.ObedientFraction = 1
	cfg.ReportThreshold = 1
	cfg.EvictAfterReports = 2
	eng, err := New(cfg, 4, withAttack(attack.Trade, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions == 0 {
		t.Fatal("reporting defense evicted nobody")
	}
	// Count evicted honest nodes via the board: delivery should not have
	// collapsed, which it would if honest nodes were being evicted.
	if res.Isolated.MeanDelivery < 0.85 {
		t.Fatalf("delivery %.4f suggests honest evictions", res.Isolated.MeanDelivery)
	}
}

// TestNoReportsWithoutAttack: a healthy fully-obedient system generates no
// evictions — honest exchanges are balanced, so no excess exists to report.
func TestNoReportsWithoutAttack(t *testing.T) {
	cfg := quickConfig()
	cfg.ObedientFraction = 1
	cfg.ReportThreshold = 1
	cfg.EvictAfterReports = 2
	res := mustRun(t, cfg, 4)
	if res.Evictions != 0 {
		t.Fatalf("healthy system evicted %d nodes", res.Evictions)
	}
}

// TestSlackWithinReportThreshold: unbalanced-by-one exchanges (slack 1) stay
// below an excess threshold of 1 and cause no evictions.
func TestSlackWithinReportThreshold(t *testing.T) {
	cfg := quickConfig()
	cfg.BalanceSlack = 1
	cfg.ObedientFraction = 1
	cfg.ReportThreshold = 1
	res := mustRun(t, cfg, 4)
	if res.Evictions != 0 {
		t.Fatalf("slack-1 exchanges evicted %d nodes", res.Evictions)
	}
}

// TestRateLimitBluntsIdealAttack reproduces E8's direction.
func TestRateLimitBluntsIdealAttack(t *testing.T) {
	cfg := quickConfig()
	cfg.ObedientFraction = 1
	avg := func(cap int) float64 {
		sum := 0.0
		const seeds = 3
		for s := uint64(0); s < seeds; s++ {
			opts := []Option{withAttack(attack.Ideal, 0.1)}
			if cap > 0 {
				opts = append(opts, withRateLimit(cap))
			}
			sum += mustRun(t, cfg, 70+s, opts...).Isolated.MeanDelivery
		}
		return sum / seeds
	}
	if capped, open := avg(1), avg(0); capped <= open {
		t.Fatalf("rate cap 1 (%.4f) should beat no cap (%.4f)", capped, open)
	}
}

// TestRateLimitHarmlessWithoutAttack: the excess-based limiter must not
// throttle honest one-for-one exchanges.
func TestRateLimitHarmlessWithoutAttack(t *testing.T) {
	cfg := quickConfig()
	cfg.ObedientFraction = 1
	res := mustRun(t, cfg, 4, withRateLimit(1))
	if res.Isolated.MeanDelivery < 0.95 {
		t.Fatalf("rate limiter crippled healthy system: %.4f", res.Isolated.MeanDelivery)
	}
}

// TestAltruismHelpsUnderAttack: the a > 0 knob restores some isolated
// delivery under a trade attack. The gain is a few thousandths of delivery,
// smaller than the seed-to-seed spread, so both arms run on the same 40
// seeds and the mean paired difference must exceed two standard errors.
func TestAltruismHelpsUnderAttack(t *testing.T) {
	base := quickConfig()
	base.AltruisticGive = 3
	with := base
	with.Altruism = 0.5
	var diffs []float64
	for s := uint64(80); s < 120; s++ {
		gain := mustRun(t, with, s, withAttack(attack.Trade, 0.3)).Isolated.MeanDelivery -
			mustRun(t, base, s, withAttack(attack.Trade, 0.3)).Isolated.MeanDelivery
		diffs = append(diffs, gain)
	}
	mean := metrics.Mean(diffs)
	se := metrics.StdDev(diffs) / math.Sqrt(float64(len(diffs)))
	if mean <= 2*se {
		t.Fatalf("altruism 0.5 gains %+.4f ± %.4f SE isolated delivery over 0 (%d paired seeds); want > 2 SE", mean, se, len(diffs))
	}
	t.Logf("altruism 0.5 gains %+.4f ± %.4f SE isolated delivery over 0 (%d paired seeds)", mean, se, len(diffs))
}

func TestRotatingTargeterChangesGroups(t *testing.T) {
	adv := &attack.Strategy{Kind: attack.Trade, Fraction: 0.2, SatiateFraction: 0.70, RotatePeriod: 5}
	res := mustRun(t, quickConfig(), 6, WithAdversary(adv))
	// Under rotation, most honest nodes spend time in both groups. With a
	// 70% satiation target over ~5 epochs, P(never isolated) = 0.7^5 = 17%,
	// so expect roughly 66 of 80 honest nodes in the isolated tally and
	// nearly all in the satiated tally.
	if res.Isolated.Nodes < 55 || res.Satiated.Nodes < 70 {
		t.Fatalf("rotation did not spread group membership: iso=%d sat=%d",
			res.Isolated.Nodes, res.Satiated.Nodes)
	}
}

func TestTrackPerNode(t *testing.T) {
	cfg := quickConfig()
	cfg.TrackPerNode = true
	res := mustRun(t, cfg, 2)
	if len(res.NodeRoundDelivery) != cfg.Nodes {
		t.Fatalf("per-node matrix has %d rows", len(res.NodeRoundDelivery))
	}
	anyMeasured := false
	for _, rounds := range res.NodeRoundDelivery {
		if len(rounds) != cfg.Rounds {
			t.Fatalf("per-node row length %d", len(rounds))
		}
		for r, v := range rounds {
			if v >= 0 {
				anyMeasured = true
				if r < cfg.Warmup || r > cfg.Rounds-cfg.Lifetime {
					t.Fatalf("round %d measured outside window", r)
				}
				if v > 1 {
					t.Fatalf("delivery fraction %g > 1", v)
				}
			}
		}
	}
	if !anyMeasured {
		t.Fatal("no per-node measurements recorded")
	}

	// Off by default.
	cfg.TrackPerNode = false
	if res := mustRun(t, cfg, 2); res.NodeRoundDelivery != nil {
		t.Fatal("per-node matrix present without TrackPerNode")
	}
}

func TestUpdateIDKey(t *testing.T) {
	a := UpdateID{Round: 3, Index: 7}
	b := UpdateID{Round: 3, Index: 8}
	c := UpdateID{Round: 4, Index: 7}
	if a.Key() == b.Key() || a.Key() == c.Key() || b.Key() == c.Key() {
		t.Fatal("UpdateID keys collide")
	}
}

func TestResultString(t *testing.T) {
	res := mustRun(t, quickConfig(), 1)
	s := res.String()
	for _, want := range []string{"isolated", "satiated", "bandwidth", "measured updates"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Result.String missing %q:\n%s", want, s)
		}
	}
}

// TestConservation: an update can only ever be held by nodes after being
// seeded or transferred — the holder count never exceeds Nodes, and
// delivery fractions are well-formed.
func TestDeliveryFractionsWellFormed(t *testing.T) {
	for _, kind := range []attack.Kind{attack.None, attack.Trade, attack.Ideal} {
		res := mustRun(t, quickConfig(), 13, withAttack(kind, 0.15))
		for _, g := range []GroupStats{res.Isolated, res.Satiated, res.AllHonest} {
			if g.Nodes == 0 {
				continue
			}
			if g.MeanDelivery < 0 || g.MeanDelivery > 1 {
				t.Fatalf("%v: mean delivery %g out of [0,1]", kind, g.MeanDelivery)
			}
			if g.MinDelivery < 0 || g.MinDelivery > 1 {
				t.Fatalf("%v: min delivery %g out of [0,1]", kind, g.MinDelivery)
			}
			if g.MinDelivery > g.MeanDelivery+1e-9 {
				t.Fatalf("%v: min %g exceeds mean %g", kind, g.MinDelivery, g.MeanDelivery)
			}
			if g.UsableFraction < 0 || g.UsableFraction > 1 {
				t.Fatalf("%v: usable fraction %g", kind, g.UsableFraction)
			}
		}
	}
}

// TestCustomTargeter: an explicit target list (Strategy.TargetList)
// controls exactly who is satiated.
func TestCustomTargeter(t *testing.T) {
	list := make([]int, 30)
	for v := range list {
		list[v] = v
	}
	adv := &attack.Strategy{Kind: attack.Trade, Fraction: 0.1, TargetList: list}
	res := mustRun(t, quickConfig(), 3, WithAdversary(adv))
	// Roughly 30 honest nodes (minus any that are attackers) are targets.
	if res.Satiated.Nodes == 0 || res.Satiated.Nodes > 30 {
		t.Fatalf("satiated group %d, want (0,30]", res.Satiated.Nodes)
	}
}

// TestBadTargeterLength: a Strategy shared by two engines is placed for
// the second one's population, so the first engine's Step must refuse a
// target set over the wrong number of nodes.
func TestBadTargeterLength(t *testing.T) {
	adv := &attack.Strategy{Kind: attack.Trade, Fraction: 0.1, SatiateFraction: 0.7}
	eng, err := New(quickConfig(), 3, WithAdversary(adv))
	if err != nil {
		t.Fatal(err)
	}
	small := quickConfig()
	small.Nodes = 60
	if _, err := New(small, 3, WithAdversary(adv)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(); err == nil {
		t.Fatal("mismatched target set size accepted")
	}
}
