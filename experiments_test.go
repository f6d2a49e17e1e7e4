package lotuseater

import (
	"strconv"
	"strings"
	"testing"

	"lotuseater/internal/gossip"
	"lotuseater/internal/scenario"
)

// The paper's figures are the integration suite: each test runs a
// reduced-quality figure end to end through RunFigure and asserts the
// paper's qualitative claims (orderings and directions, not absolute
// values).

func quickQ() RunOptions { return RunOptions{Points: 5, Replicates: 1} }

// figure runs a registered figure or fails the test.
func figure(t testing.TB, name string, seed uint64, opts RunOptions) *Artifact {
	t.Helper()
	a, err := RunFigure(name, seed, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return a
}

// rowsByName indexes a table figure's body rows by their first cell.
func rowsByName(a *Artifact) map[string][]string {
	rows := map[string][]string{}
	for _, r := range a.Table[1:] {
		rows[r[0]] = r
	}
	return rows
}

// cell parses a table figure's cell by row name and column header.
func cell(t testing.TB, a *Artifact, row, col string) float64 {
	t.Helper()
	for c, h := range a.Table[0] {
		if h != col {
			continue
		}
		r, ok := rowsByName(a)[row]
		if !ok {
			t.Fatalf("%s: no row %q", a.Name, row)
		}
		v, err := strconv.ParseFloat(r[c], 64)
		if err != nil {
			t.Fatalf("%s: %s/%s: %v", a.Name, row, col, err)
		}
		return v
	}
	t.Fatalf("%s: no column %q", a.Name, col)
	return 0
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := figure(t, "table1", 1, quickQ()).Table
	want := map[string]string{
		"Number of Nodes":       "250",
		"Updates per Round":     "10",
		"Update Lifetime (rds)": "10",
		"Copies Seeded":         "12",
		"Opt. Push Size (upd)":  "2",
	}
	for _, row := range rows[1:] {
		if want[row[0]] != row[1] {
			t.Fatalf("Table 1 row %q = %q, want %q", row[0], row[1], want[row[0]])
		}
		delete(want, row[0])
	}
	if len(want) != 0 {
		t.Fatalf("Table 1 missing rows: %v", want)
	}
}

func TestFigure1Ordering(t *testing.T) {
	series := figure(t, "figure1", 1, quickQ()).Series
	if len(series) != 3 {
		t.Fatalf("%d series", len(series))
	}
	crash, ideal, trade := series[0], series[1], series[2]
	// At x = 0 all three agree on the healthy baseline.
	for _, s := range series {
		if s.Points[0].Y < 0.95 {
			t.Fatalf("%s baseline %.4f", s.Name, s.Points[0].Y)
		}
	}
	// Attack severity ordering at mid-sweep.
	x := crash.Points[2].X
	if !(ideal.YAt(x) < trade.YAt(x) && trade.YAt(x) < crash.YAt(x)) {
		t.Fatalf("ordering violated at x=%.2f: ideal %.3f, trade %.3f, crash %.3f",
			x, ideal.YAt(x), trade.YAt(x), crash.YAt(x))
	}
	// All curves decrease overall.
	for _, s := range series {
		first, last := s.Points[0].Y, s.Points[len(s.Points)-1].Y
		if last >= first {
			t.Fatalf("%s does not degrade: %.3f -> %.3f", s.Name, first, last)
		}
	}
}

func TestFigure2BluntsAttacks(t *testing.T) {
	q := quickQ()
	fig1 := figure(t, "figure1", 2, q).Series
	fig2 := figure(t, "figure2", 2, q).Series
	// Larger pushes help the isolated nodes against the ideal attack at
	// every interior point.
	x := fig1[1].Points[2].X
	if fig2[1].YAt(x) <= fig1[1].YAt(x) {
		t.Fatalf("push 10 did not blunt ideal attack at x=%.2f: %.4f vs %.4f",
			x, fig2[1].YAt(x), fig1[1].YAt(x))
	}
}

func TestFigure3UnbalancedHelps(t *testing.T) {
	series := figure(t, "figure3", 3, quickQ()).Series
	if len(series) != 4 {
		t.Fatalf("%d series", len(series))
	}
	balanced2, unbalanced2, unbalanced4 := series[0], series[1], series[3]
	x := balanced2.Points[3].X
	if unbalanced2.YAt(x) <= balanced2.YAt(x) {
		t.Fatalf("slack at push 2 did not help at x=%.2f", x)
	}
	// The combined change (push 4 + slack) beats plain push 2.
	if unbalanced4.YAt(x) <= balanced2.YAt(x) {
		t.Fatalf("combined defense did not help at x=%.2f", x)
	}
}

func TestAltruismExperimentMonotoneEnds(t *testing.T) {
	s := figure(t, "altruism", 4, quickQ()).Series[0]
	first := s.Points[0].Y
	last := s.Points[len(s.Points)-1].Y
	if last <= first {
		t.Fatalf("altruism did not improve completion: %.3f -> %.3f", first, last)
	}
	if last < 0.9 {
		t.Fatalf("high altruism completion %.3f", last)
	}
}

func TestGridCutExperimentShowsBarrier(t *testing.T) {
	a := figure(t, "gridcut", 5, quickQ())
	coverage := func(row string) float64 { return cell(t, a, row, "rare-token-coverage") }
	gridBase := coverage("grid/no-attack")
	gridCut := coverage("grid/column-cut")
	rndBase := coverage("random/no-attack")
	rndHit := coverage("random/same-size-target")

	if gridCut > 0.60 {
		t.Fatalf("cut did not pin coverage: %.3f", gridCut)
	}
	if gridBase < gridCut+0.2 {
		t.Fatalf("cut indistinct from baseline: %.3f vs %.3f", gridBase, gridCut)
	}
	if rndHit < 0.95 || rndBase < 0.95 {
		t.Fatalf("random graph affected by same-size attack: %.3f / %.3f", rndBase, rndHit)
	}
}

func TestRareTokenExperimentAltruismRescues(t *testing.T) {
	s := figure(t, "raretoken", 6, quickQ()).Series[0]
	if s.Points[0].Y > 0.1 {
		t.Fatalf("a=0 rare-token denial failed: completion %.3f", s.Points[0].Y)
	}
	last := s.Points[len(s.Points)-1].Y
	if last < 0.9 {
		t.Fatalf("altruism did not rescue: %.3f", last)
	}
}

func TestScripMoneySupplyBound(t *testing.T) {
	s := figure(t, "scrip-money-supply", 7, quickQ()).Series[0]
	// Satiated fraction collapses as the targeted fraction grows.
	small := s.Points[1].Y
	big := s.Points[len(s.Points)-1].Y
	if big >= small {
		t.Fatalf("satiation did not collapse with scale: %.3f -> %.3f", small, big)
	}
	if big > 0.5 {
		t.Fatalf("earned-budget attacker satiated %.3f of a large target set", big)
	}
}

func TestScripRareProviderDenial(t *testing.T) {
	series := figure(t, "scrip-rare-provider", 8, quickQ()).Series
	attacked, defended := series[0], series[1]
	last := len(attacked.Points) - 1
	// A well-funded attack collapses specialty availability relative to the
	// unattacked baseline (budget 0).
	if attacked.Points[last].Y >= attacked.Points[0].Y-0.3 {
		t.Fatalf("budget %.0f did not collapse availability: %.3f vs baseline %.3f",
			attacked.Points[last].X, attacked.Points[last].Y, attacked.Points[0].Y)
	}
	// Harm grows with budget.
	if attacked.Points[last].Y >= attacked.Points[2].Y {
		t.Fatalf("harm not increasing in budget: %.3f at %.0f vs %.3f at %.0f",
			attacked.Points[2].Y, attacked.Points[2].X, attacked.Points[last].Y, attacked.Points[last].X)
	}
	// Altruists blunt the attack at every budget.
	if defended.Points[last].Y < 0.8 {
		t.Fatalf("altruists did not defend: %.3f", defended.Points[last].Y)
	}
}

func TestSwarmExperimentClaims(t *testing.T) {
	a := figure(t, "swarm", 9, RunOptions{Replicates: 2})
	baseCompleted := cell(t, a, "baseline/rarest-first", "completed")
	baseTick := cell(t, a, "baseline/rarest-first", "mean-tick")
	topTick := cell(t, a, "attack-top-uploaders", "mean-tick")
	if baseCompleted < 0.99 {
		t.Fatalf("baseline swarm completed %.3f", baseCompleted)
	}
	// "Often actually a net benefit": the attack must not slow the swarm.
	if topTick > baseTick*1.1 {
		t.Fatalf("top-uploader attack slowed the swarm: %.1f vs %.1f", topTick, baseTick)
	}
	// The rare-piece attack "does significantly less damage" than a crash
	// of comparable scale would: completion stays high under both policies.
	for _, name := range []string{"fragile/rare-attack/rarest-first", "fragile/rare-attack/random"} {
		if c := cell(t, a, name, "completed"); c < 0.8 {
			t.Fatalf("%s completed %.3f", name, c)
		}
	}
}

func TestCodingExperimentDefends(t *testing.T) {
	series := figure(t, "coding", 10, quickQ()).Series
	plain, coded := series[0], series[1]
	lastIdx := len(plain.Points) - 1
	if plain.Points[lastIdx].Y > 0.75 {
		t.Fatalf("plain mode survived rare-holder satiation: %.3f", plain.Points[lastIdx].Y)
	}
	if coded.Points[lastIdx].Y < 0.85 {
		t.Fatalf("coded mode degraded: %.3f", coded.Points[lastIdx].Y)
	}
	if coded.Points[lastIdx].Y <= plain.Points[lastIdx].Y {
		t.Fatal("coding did not beat plain under attack")
	}
}

func TestReportingExperimentEvicts(t *testing.T) {
	series := figure(t, "reporting", 11, quickQ()).Series
	delivery, evictions := series[0], series[1]
	if evictions.Points[0].Y != 0 {
		t.Fatalf("evictions with zero obedience: %g", evictions.Points[0].Y)
	}
	last := len(evictions.Points) - 1
	if evictions.Points[last].Y < 50 {
		t.Fatalf("full obedience evicted only %g of ~75 attackers", evictions.Points[last].Y)
	}
	if delivery.Points[last].Y < delivery.Points[0].Y-0.02 {
		t.Fatalf("reporting made things notably worse: %.4f -> %.4f",
			delivery.Points[0].Y, delivery.Points[last].Y)
	}
}

func TestRateLimitExperimentDefends(t *testing.T) {
	series := figure(t, "ratelimit", 12, quickQ()).Series
	attacked, clean := series[0], series[1]
	// Cap 1 (index 1) must beat no cap (index 0) under attack.
	if attacked.Points[1].Y <= attacked.Points[0].Y {
		t.Fatalf("cap 1 (%.4f) did not beat cap 0 (%.4f)",
			attacked.Points[1].Y, attacked.Points[0].Y)
	}
	// The excess-based limiter must not hurt the healthy system.
	for _, p := range clean.Points {
		if p.Y < 0.95 {
			t.Fatalf("healthy delivery %.4f at cap %g", p.Y, p.X)
		}
	}
}

func TestRotatingExperimentSpreadsOutages(t *testing.T) {
	a := figure(t, "rotating", 13, RunOptions{Replicates: 1})
	if len(a.Table) != 3 {
		t.Fatalf("%d rows", len(a.Table)-1)
	}
	staticArm := cell(t, a, "static", "nodes-with-outage")
	rotating := cell(t, a, "rotating", "nodes-with-outage")
	if rotating <= staticArm {
		t.Fatalf("rotation did not spread outages: %.3f vs %.3f", rotating, staticArm)
	}
	if rotating < 0.5 {
		t.Fatalf("rotating attack reached only %.3f of nodes", rotating)
	}
}

// facadeRun is what every facade-built simulator offers: step to the
// horizon.
type facadeRun interface {
	Step() error
	Finished() bool
}

// facadeCase builds one small instance of a simulator through its facade
// constructor, which takes an attack.
type facadeCase struct {
	name  string
	build func(adv *Strategy) (facadeRun, error)
}

func facadeCases() []facadeCase {
	gossipCfg := DefaultGossipConfig()
	gossipCfg.Nodes = 50
	gossipCfg.Rounds = 30
	gossipCfg.Warmup = 5
	scripCfg := DefaultScripConfig()
	scripCfg.Rounds = 2000
	swarmCfg := DefaultSwarmConfig()
	swarmCfg.Leechers = 20
	swarmCfg.Pieces = 16
	swarmCfg.Ticks = 100
	return []facadeCase{
		{"gossip", func(adv *Strategy) (facadeRun, error) { return NewGossip(gossipCfg, 1, adv) }},
		{"token", func(adv *Strategy) (facadeRun, error) {
			return NewTokenModel(TokenModelConfig{
				Graph:    CompleteGraph(20),
				Tokens:   4,
				Contacts: 2,
				Rounds:   10,
			}, 2, adv)
		}},
		{"scrip", func(adv *Strategy) (facadeRun, error) { return NewScrip(scripCfg, 3, adv) }},
		{"swarm", func(adv *Strategy) (facadeRun, error) { return NewSwarm(swarmCfg, 4, adv) }},
		{"coding", func(adv *Strategy) (facadeRun, error) {
			return NewDissemination(DisseminationConfig{
				Graph:       RandomGraph(30, 0.2, 7),
				Symbols:     5,
				PayloadSize: 8,
				Contacts:    2,
				Rounds:      20,
				Coded:       true,
			}, 5, adv)
		}},
	}
}

// TestFacadeConstructors: every constructor runs unattacked (nil) and under
// an explicit target list, and rejects an invalid strategy with its
// validation error before building anything. Only the swarm ranks its
// nodes: it runs a ranked strategy, which every other constructor rejects.
func TestFacadeConstructors(t *testing.T) {
	drive := func(name string, m facadeRun, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for !m.Finished() {
			if err := m.Step(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
	for _, c := range facadeCases() {
		m, err := c.build(nil)
		drive(c.name+" unattacked", m, err)
		m, err = c.build(&Strategy{Kind: AttackIdeal, TargetList: []int{0, 1}})
		drive(c.name+" satiating 0 and 1", m, err)

		if _, err := c.build(&Strategy{Kind: AttackTrade, Fraction: 1.5}); err == nil || !strings.Contains(err.Error(), "Fraction must be in [0,1]") {
			t.Fatalf("%s: Fraction 1.5 gave %v, want the validation error", c.name, err)
		}
		if _, err := c.build(&Strategy{Kind: AttackIdeal, TargetList: []int{1000}}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("%s: target 1000 gave %v, want the out-of-range error", c.name, err)
		}
		m, err = c.build(&Strategy{Kind: AttackIdeal, SatiateFraction: 0.1, Rank: "uploaders"})
		if c.name == "swarm" {
			drive(c.name+" ranked", m, err)
		} else if err == nil || !strings.Contains(err.Error(), "ranks its nodes") {
			t.Fatalf("%s: a ranked strategy gave %v, want the ranking error", c.name, err)
		}
	}

	// A valid trade strategy places the attacker's roles: 20% of 50 nodes.
	cfg := DefaultGossipConfig()
	cfg.Nodes = 50
	eng, err := NewGossip(cfg, 1, &Strategy{Kind: AttackTrade, Fraction: 0.2, SatiateFraction: 0.70})
	if err != nil {
		t.Fatal(err)
	}
	attackers := 0
	for _, r := range eng.Roles() {
		if r == gossip.RoleAttacker {
			attackers++
		}
	}
	if attackers != 10 {
		t.Fatalf("trade strategy placed %d attacker roles, want 10", attackers)
	}

	if GridGraph(3, 3).N() != 9 {
		t.Fatal("grid facade broken")
	}
}

// TestQualityNormalize: the quality presets scale figures (full above
// quick), and a run clamps what it is given to runnable values (two sweep
// points at least).
func TestQualityNormalize(t *testing.T) {
	full, err := scenario.Quality("full")
	if err != nil {
		t.Fatal(err)
	}
	quick, err := scenario.Quality("quick")
	if err != nil {
		t.Fatal(err)
	}
	if full.Points <= quick.Points || full.Replicates < quick.Replicates {
		t.Fatalf("full quality %+v not larger than quick %+v", full, quick)
	}
	s := figure(t, "raretoken", 1, RunOptions{Points: 1, Replicates: 1}).Series[0]
	if s.Len() != 2 {
		t.Fatalf("one requested point ran as %d, want the 2-point minimum", s.Len())
	}
}

func TestInflationExperimentCliff(t *testing.T) {
	s := figure(t, "inflation", 14, quickQ()).Series[0]
	last := s.Points[len(s.Points)-1]
	if last.Y != 0 {
		t.Fatalf("economy survived %g/capita inflation: %.3f", last.X, last.Y)
	}
	// Mild inflation helps before the cliff.
	if s.Points[1].Y <= s.Points[0].Y {
		t.Fatalf("mild inflation did not help: %.3f -> %.3f", s.Points[0].Y, s.Points[1].Y)
	}
}

func TestHoardingExperimentMonotone(t *testing.T) {
	s := figure(t, "hoarding", 15, quickQ()).Series[0]
	first, last := s.Points[0].Y, s.Points[len(s.Points)-1].Y
	if last >= first-0.3 {
		t.Fatalf("hoarding did not crash availability: %.3f -> %.3f", first, last)
	}
}

func TestSatiateFractionAblation(t *testing.T) {
	series := figure(t, "satiate-ablation", 16, RunOptions{Points: 6, Replicates: 2}).Series
	delivery, victims := series[0], series[1]
	// Per-victim damage grows with the satiated fraction...
	first, last := delivery.Points[0].Y, delivery.Points[len(delivery.Points)-1].Y
	if last >= first {
		t.Fatalf("delivery did not fall with satiation: %.3f -> %.3f", first, last)
	}
	// ...but the victim count has an interior maximum: both endpoints are
	// below the peak.
	peak := 0.0
	for _, p := range victims.Points {
		if p.Y > peak {
			peak = p.Y
		}
	}
	if victims.Points[0].Y >= peak || victims.Points[len(victims.Points)-1].Y >= peak {
		t.Fatalf("victim count not interior-peaked: ends %.1f/%.1f, peak %.1f",
			victims.Points[0].Y, victims.Points[len(victims.Points)-1].Y, peak)
	}
}
