package scenario

import (
	"fmt"
	"maps"

	"lotuseater/internal/gossip"
	"lotuseater/internal/graph"
)

// The paper's tables and figures (Table 1, Figures 1-3, E1-E11, A1) as
// figure data: each arm pins its figure's population, horizon, attack and
// knobs. registerFigure runs arms that leave replicates and sweep points
// unset at full quality, which RunOptions and the -quality presets
// override.
func init() {
	full := func(axis string, from, to float64) SweepSpec {
		return SweepSpec{Axis: axis, From: from, To: to}
	}
	// segments sweeps one series over an uneven grid: one arm per evenly
	// spaced piece, merged in x order by the figure.
	segments := func(label string, base *Spec, axis string, pieces ...[3]float64) []Arm {
		arms := make([]Arm, 0, len(pieces))
		for _, p := range pieces {
			s := base.Clone()
			s.Sweep = SweepSpec{Axis: axis, From: p[0], To: p[1], Points: int(p[2])}
			arms = append(arms, Arm{label, s})
		}
		return arms
	}
	// withMetric is base measured by another metric.
	withMetric := func(base *Spec, metric string) *Spec {
		s := base.Clone()
		s.Metric = metric
		return s
	}

	cfg := gossip.DefaultConfig()
	registerFigure(&Figure{
		Name:        "table1",
		Title:       "Table 1: Simulation Parameters",
		Description: "Table 1: the paper's simulation parameters, sourced from the live defaults",
		Rows: [][]string{
			{"Parameter", "Value"},
			{"Number of Nodes", fmt.Sprint(cfg.Nodes)},
			{"Updates per Round", fmt.Sprint(cfg.UpdatesPerRound)},
			{"Update Lifetime (rds)", fmt.Sprint(cfg.Lifetime)},
			{"Copies Seeded", fmt.Sprint(cfg.CopiesSeeded)},
			{"Opt. Push Size (upd)", fmt.Sprint(cfg.PushSize)},
		},
	})

	// Figures 1 and 2: isolated-node delivery vs attacker fraction for the
	// crash, ideal and trade attacks, at push size 2 and 10.
	attacks := func(push float64) []Arm {
		var arms []Arm
		for _, a := range [][2]string{{"crash", "crash"}, {"ideal-lotus-eater", "ideal"}, {"trade-lotus-eater", "trade"}} {
			arms = append(arms, Arm{a[0], &Spec{
				Substrate: "gossip",
				Adversary: AdversarySpec{Kind: a[1], SatiateFraction: 0.70},
				Sweep:     full("adversary.fraction", 0, 0.9),
				Params:    map[string]float64{"push": push},
			}})
		}
		return arms
	}
	registerFigure(&Figure{
		Name:        "figure1",
		Title:       "Figure 1: three attacks on BAR Gossip (isolated-node delivery)",
		Description: "Figure 1: crash vs ideal vs trade lotus-eater attacks on BAR Gossip (push size 2)",
		XLabel:      "attacker-fraction",
		Crossover:   true,
		Arms:        attacks(2),
	})
	registerFigure(&Figure{
		Name:        "figure2",
		Title:       "Figure 2: push size 10 reduces attack effectiveness",
		Description: "Figure 2: raising the optimistic push size to 10 blunts all three attacks",
		XLabel:      "attacker-fraction",
		Crossover:   true,
		Arms:        attacks(10),
	})

	// Figure 3: the trade attack against the obedient "slightly unbalanced
	// exchange" (one extra update), alone and with push size 4.
	var fig3 []Arm
	for _, v := range []struct {
		label       string
		push, slack float64
	}{{"push2-balanced", 2, 0}, {"push2-unbalanced", 2, 1}, {"push4-balanced", 4, 0}, {"push4-unbalanced", 4, 1}} {
		fig3 = append(fig3, Arm{v.label, &Spec{
			Substrate: "gossip",
			Adversary: AdversarySpec{Kind: "trade", SatiateFraction: 0.70},
			Sweep:     full("adversary.fraction", 0, 0.7),
			Params:    map[string]float64{"push": v.push, "slack": v.slack},
		}})
	}
	registerFigure(&Figure{
		Name:        "figure3",
		Title:       "Figure 3: obedient (unbalanced) exchanges reduce effectiveness",
		Description: "Figure 3: slightly unbalanced exchanges defend against the trade attack",
		XLabel:      "attacker-fraction",
		Crossover:   true,
		Arms:        fig3,
	})

	// E1: half the token model satiated; the completed fraction of the
	// other half as altruism a grows. The transition happens at a few
	// percent, so the sweep stops at a = 0.1.
	registerFigure(&Figure{
		Name:        "altruism",
		Title:       "E1: altruism a vs completion under half-system satiation (token model)",
		Description: "E1: altruism a restores completion under half-system satiation (token model)",
		XLabel:      "altruism-a",
		Arms: []Arm{{"isolated-completed-fraction", &Spec{
			Substrate: "token",
			Nodes:     200,
			Rounds:    80,
			Adversary: AdversarySpec{Kind: "ideal", Targets: span(100)},
			Sweep:     full("params.altruism", 0, 0.1),
			Metric:    "organic-completed",
			Params:    map[string]float64{"tokens": 50, "contacts": 2},
		}}},
	})

	// E2: a rare token lives only on a 16x16 grid's left edge; satiating
	// column 8 (a = 0, so satiated nodes are barriers) pins its coverage to
	// the left side. A degree-matched random graph has no cheap cut.
	grid := &Spec{
		Substrate: "token",
		Nodes:     256,
		Rounds:    120,
		Params:    map[string]float64{"tokens": 50, "contacts": 2, "rare": 1, "rareCopies": 16, "graph": 2},
	}
	random := grid.Clone()
	delete(random.Params, "graph")
	cut := func(base *Spec) *Spec {
		s := base.Clone()
		s.Adversary = AdversarySpec{Kind: "ideal", Targets: graph.GridColumnCut(16, 16, 8)}
		return s
	}
	registerFigure(&Figure{
		Name:        "gridcut",
		Title:       "E2: satiating a grid cut vs a random graph (token model)",
		Description: "E2: satiating a 16-node grid column cuts the system; a random graph shrugs it off",
		RowLabel:    "topology/attack",
		Arms: []Arm{
			{"grid/no-attack", grid},
			{"grid/column-cut", cut(grid)},
			{"random/no-attack", random},
			{"random/same-size-target", cut(random)},
		},
		Columns: []Column{
			{"satiated", "attacker-satiated", "%.0f"},
			{"rare-token-coverage", "rare-coverage", "%.4f"},
			{"completed-fraction", "completed", "%.4f"},
		},
	})

	// E3: node 0 alone holds token 0; satiating it denies the whole system
	// at a = 0, and any altruism eventually leaks the token.
	registerFigure(&Figure{
		Name:        "raretoken",
		Title:       "E3: rare-token denial vs altruism (token model)",
		Description: "E3: satiating one rare-token holder denies the whole system at a = 0",
		XLabel:      "altruism-a",
		Arms: []Arm{{"completed-fraction", &Spec{
			Substrate: "token",
			Nodes:     100,
			Rounds:    60,
			Adversary: AdversarySpec{Kind: "ideal", Targets: []int{0}},
			Sweep:     full("params.altruism", 0, 0.3),
			Metric:    "completed",
			Params:    map[string]float64{"tokens": 10, "contacts": 1, "graph": 1, "rare": 1},
		}}},
	})

	// E4a: a 5% attacker financing the attack from in-system earnings
	// (earning alone for the first 1000 requests) sweeps its target set.
	registerFigure(&Figure{
		Name:        "scrip-money-supply",
		Title:       "E4a: scrip-system satiation is bounded by the money supply",
		Description: "E4a: an earned-budget attacker cannot satiate a large fraction of a scrip economy",
		XLabel:      "targeted-fraction",
		Arms: []Arm{{"satiated-fraction(earned-budget)", &Spec{
			Substrate: "scrip",
			Adversary: AdversarySpec{Kind: "trade", Fraction: 0.05, Start: 1000},
			Sweep:     full("adversary.satiateFraction", 0, 0.8),
			Metric:    "satiated-targets",
		}}},
	})

	// E4b: only agents 0-9 serve specialty requests, and the attacker keeps
	// them satiated from round 1000 for as long as its budget lasts. The
	// second series makes two of them altruists.
	provider := &Spec{
		Substrate: "scrip",
		Adversary: AdversarySpec{Kind: "trade", Targets: span(10), Start: 1000},
		Metric:    "special-availability",
		// Specialty demand is tuned so providers earn about as fast as they
		// spend; otherwise they satiate on their own and the attack has
		// nothing left to deny.
		Params: map[string]float64{"special": 10, "specialReq": 0.05},
	}
	altruists := provider.Clone()
	altruists.Params["altruistProviders"] = 2
	budgets := [][3]float64{{0, 50, 2}, {100, 200, 2}, {400, 800, 2}, {1600, 3200, 2}}
	registerFigure(&Figure{
		Name:        "scrip-rare-provider",
		Title:       "E4b: satiating rare providers denies specialty service; altruists restore it",
		Description: "E4b: satiating rare providers denies specialty service; altruist providers restore it",
		XLabel:      "attack-budget",
		FixedGrid:   true,
		Arms: append(segments("specialty-availability", provider, "params.budget", budgets...),
			segments("specialty-availability(2-altruist-providers)", altruists, "params.budget", budgets...)...),
	})

	// E5: satiating top uploaders of a seeded swarm does no damage; the
	// rare-piece-holder attack on a fragile swarm (the seed leaves at tick
	// 60, finished leechers leave) costs at most a few pieces. The attacker
	// controls no leecher: it uploads from outside to 8 (2) of the 120
	// leechers, best-ranked first.
	row := func(rounds int, adv AdversarySpec, params ...map[string]float64) *Spec {
		s := &Spec{Substrate: "swarm", Rounds: rounds, Adversary: adv, Params: map[string]float64{}}
		for _, p := range params {
			maps.Copy(s.Params, p)
		}
		return s
	}
	none := AdversarySpec{}
	topUploaders := AdversarySpec{Kind: "ideal", SatiateFraction: 8.0 / 120, Rank: "uploaders"}
	rareHolders := AdversarySpec{Kind: "ideal", SatiateFraction: 2.0 / 120, Rank: "rarest", Start: 10, Stop: 60}
	fragile := map[string]float64{"seedDepart": 60, "seedAfter": 0}
	rareUplink := map[string]float64{"uplink": 64}
	randomPick := map[string]float64{"selection": 1}
	registerFigure(&Figure{
		Name:        "swarm",
		Title:       "E5: lotus-eater attacks on a BitTorrent-like swarm",
		Description: "E5: lotus-eater attacks on a BitTorrent-like swarm are weak or even helpful",
		RowLabel:    "scenario",
		Arms: []Arm{
			{"baseline/rarest-first", row(0, none)},
			{"attack-top-uploaders", row(0, topUploaders, map[string]float64{"uplink": 32})},
			{"fragile/no-attack/rarest-first", row(600, none, fragile)},
			{"fragile/rare-attack/rarest-first", row(600, rareHolders, fragile, rareUplink)},
			{"fragile/no-attack/random", row(600, none, fragile, randomPick)},
			{"fragile/rare-attack/random", row(600, rareHolders, fragile, rareUplink, randomPick)},
		},
		Columns: []Column{
			{"completed", "completed", "%.3f"},
			{"mean-tick", "mean-tick", "%.1f"},
			{"median-tick", "median-tick", "%.1f"},
			{"lost-pieces", "lost-pieces", "%.0f"},
		},
	})

	// E6: nodes 0-11 are the sole holders of symbols 0-11; satiating the
	// first s of them loses those symbols in plain dissemination, while
	// coded packets mix every symbol.
	plain := &Spec{
		Substrate: "coding",
		Nodes:     120,
		Rounds:    50,
		Adversary: AdversarySpec{Kind: "ideal"},
		Sweep:     SweepSpec{Axis: "adversary.targets", From: 0, To: 12, Points: 7},
		Params:    map[string]float64{"symbols": 24, "payload": 32, "contacts": 2, "rare": 12},
	}
	coded := plain.Clone()
	coded.Params["coded"] = 1
	registerFigure(&Figure{
		Name:        "coding",
		Title:       "E6: network coding neutralizes rare-token satiation",
		Description: "E6: random linear network coding neutralizes rare-token satiation",
		XLabel:      "satiated-unique-holders",
		FixedGrid:   true,
		Arms:        []Arm{{"plain", plain}, {"coded", coded}},
	})

	// E7: obedient targets report the trade attacker's excessive deliveries
	// (any excess beyond one-for-one is reportable; two witnesses evict).
	reporting := &Spec{
		Substrate: "gossip",
		Adversary: AdversarySpec{Kind: "trade", Fraction: 0.30, SatiateFraction: 0.70},
		Sweep:     full("params.obedient", 0, 1),
		Params:    map[string]float64{"report": 1, "evict": 2},
	}
	registerFigure(&Figure{
		Name:        "reporting",
		Title:       "E7: obedient reporting evicts over-providers (trade attack, 30%)",
		Description: "E7: obedient nodes reporting excessive deliveries evict the attacker",
		XLabel:      "obedient-fraction",
		Arms:        []Arm{{"isolated-delivery", reporting}, {"evicted-nodes", withMetric(reporting, "evictions")}},
	})

	// E8: every honest node is obedient and accepts at most cap updates per
	// peer per round (cap 0 is off), under a 10% ideal attack and none.
	caps := [][3]float64{{0, 4, 5}, {6, 12, 2}, {8, 24, 3}}
	capped := &Spec{
		Substrate: "gossip",
		Adversary: AdversarySpec{Kind: "ideal", Fraction: 0.10, SatiateFraction: 0.70},
		Defense:   DefenseSpec{Kind: "ratelimit"},
		Params:    map[string]float64{"obedient": 1},
	}
	unattacked := capped.Clone()
	unattacked.Adversary = AdversarySpec{Kind: "none"}
	registerFigure(&Figure{
		Name:        "ratelimit",
		Title:       "E8: per-peer rate limiting vs the ideal attack (cap=0 means off)",
		Description: "E8: per-peer service rate limiting blunts the ideal attack at no healthy-system cost",
		XLabel:      "rate-cap",
		FixedGrid:   true,
		Arms: append(segments("ideal-attack(10%)", capped, "defense.rateLimit", caps...),
			segments("no-attack", unattacked, "defense.rateLimit", caps...)...),
	})

	// E9: an 8% ideal attacker with a static satiated set vs one re-drawn
	// every 20 rounds, measured in 20-round windows.
	rotating := func(period int) *Spec {
		return &Spec{
			Substrate: "gossip",
			Rounds:    15 + 10*20,
			Adversary: AdversarySpec{Kind: "ideal", Fraction: 0.08, SatiateFraction: 0.70, RotatePeriod: period},
			Params:    map[string]float64{"epoch": 20},
		}
	}
	registerFigure(&Figure{
		Name:        "rotating",
		Title:       "E9: rotating the satiated set makes service intermittently unusable for all",
		Description: "E9: rotating the satiated set makes service intermittently unusable for everyone",
		RowLabel:    "arm",
		Arms:        []Arm{{"static", rotating(0)}, {"rotating", rotating(20)}},
		Columns: []Column{
			{"mean-delivery", "honest-delivery", "%.4f"},
			{"nodes-with-outage", "nodes-with-outage", "%.3f"},
			{"mean-outage-epochs", "mean-outage-epochs", "%.2f"},
			{"epochs", "epochs", "%.0f"},
		},
	})

	// E10: untargeted scrip gifts; the grid is dense around the cliff.
	registerFigure(&Figure{
		Name:        "inflation",
		Title:       "E10: satiation by monetary inflation (untargeted scrip gifts)",
		Description: "E10 (extension): untargeted scrip gifts satiate the whole economy past a cliff",
		XLabel:      "injected-scrip-per-capita",
		FixedGrid:   true,
		Arms: segments("availability", &Spec{Substrate: "scrip", Metric: "availability"},
			"params.mint", [3]float64{0, 2, 3}, [3]float64{2.25, 2.75, 3}, [3]float64{3, 4, 2}),
	})

	// E11: attacker agents that only volunteer and never spend (a trade
	// attacker satiating nobody) drain the money supply.
	registerFigure(&Figure{
		Name:        "hoarding",
		Title:       "E11: service hoarders drain the money supply and centralize the system",
		Description: "E11 (extension): service hoarders drain the money supply and centralize the system",
		XLabel:      "hoarder-fraction",
		Arms: []Arm{{"availability", &Spec{
			Substrate: "scrip",
			Adversary: AdversarySpec{Kind: "trade"},
			Sweep:     full("adversary.fraction", 0, 0.25),
			Metric:    "availability",
		}}},
	})

	// A1: at 25% trade attackers, satiating more nodes starves each
	// isolated node harder but leaves fewer of them, so the number of
	// victims peaks in between. A victim is an honest node whose delivery
	// over the whole run (one 60-round window) is unusable.
	ablation := &Spec{
		Substrate: "gossip",
		Adversary: AdversarySpec{Kind: "trade", Fraction: 0.25},
		Sweep:     full("adversary.satiateFraction", 0.3, 0.95),
		Params:    map[string]float64{"epoch": float64(cfg.Rounds)},
	}
	registerFigure(&Figure{
		Name:        "satiate-ablation",
		Title:       "A1: why satiate 70%? (trade attack, 25% attackers)",
		Description: "A1: why the attacker satiates ~70% — per-victim damage vs victim count",
		XLabel:      "satiate-fraction",
		Arms:        []Arm{{"isolated-delivery", ablation}, {"unusable-victims", withMetric(ablation, "outage-nodes")}},
	})
}

// span returns the node ids 0..n-1.
func span(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
