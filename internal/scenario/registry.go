package scenario

import (
	"fmt"
	"maps"
	"slices"
	"sync"
)

var (
	regMu    sync.RWMutex
	registry = map[string]*Spec{}
)

// Register adds a spec to the registry. It panics on an invalid spec or a
// duplicate name — programmer errors at init time.
func Register(s *Spec) {
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("scenario: Register(%q): %v", s.Name, err))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", s.Name))
	}
	// Store a private copy: callers may keep mutating (or sharing) the spec
	// and its params map after registration.
	registry[s.Name] = s.Clone()
}

// Get returns a copy of the named spec, so callers can override fields
// without mutating the registry.
func Get(name string) (*Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	if !ok {
		return nil, false
	}
	return s.Clone(), true
}

// All returns copies of every registered spec sorted by name.
func All() []*Spec {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Spec, 0, len(registry))
	for _, name := range slices.Sorted(maps.Keys(registry)) {
		out = append(out, registry[name].Clone())
	}
	return out
}

// Names returns the sorted registry keys.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// The canned scenarios: declarative forms of the repository's classic
// sweeps. Each is data — retune it with `-set key=val` instead of editing
// code.
func init() {
	Register(&Spec{
		Name:        "gossip-trade",
		Title:       "Trade lotus-eater vs BAR Gossip",
		Description: "Figure 1's trade arm as data: isolated-node delivery vs attacker fraction",
		Substrate:   "gossip",
		Adversary:   AdversarySpec{Kind: "trade", SatiateFraction: 0.70},
		Sweep:       SweepSpec{Axis: "adversary.fraction", From: 0, To: 0.9, Points: 10},
		Replicates:  3,
	})
	Register(&Spec{
		Name:        "gossip-trade-push10",
		Title:       "Trade lotus-eater vs BAR Gossip, push size 10",
		Description: "Figure 2's defense as data: raising the optimistic push size blunts the attack",
		Substrate:   "gossip",
		Adversary:   AdversarySpec{Kind: "trade", SatiateFraction: 0.70},
		Sweep:       SweepSpec{Axis: "adversary.fraction", From: 0, To: 0.9, Points: 10},
		Replicates:  3,
		Params:      map[string]float64{"push": 10},
	})
	Register(&Spec{
		Name:        "gossip-ratelimit",
		Title:       "Per-peer rate limiting vs the ideal attack",
		Description: "E8 as data: sweep the obedient acceptance cap against a 10% ideal attacker",
		Substrate:   "gossip",
		Adversary:   AdversarySpec{Kind: "ideal", Fraction: 0.10, SatiateFraction: 0.70},
		Defense:     DefenseSpec{Kind: "ratelimit"},
		Sweep:       SweepSpec{Axis: "defense.rateLimit", From: 0, To: 24, Points: 7},
		Replicates:  3,
	})
	Register(&Spec{
		Name:        "gossip-rotating",
		Title:       "Rotating the satiated set",
		Description: "E9's knob as data: sweep the rotation period of an 8% ideal attacker",
		Substrate:   "gossip",
		Adversary:   AdversarySpec{Kind: "ideal", Fraction: 0.08, SatiateFraction: 0.70},
		Sweep:       SweepSpec{Axis: "adversary.rotatePeriod", From: 0, To: 25, Points: 6},
		Replicates:  3,
	})
	Register(&Spec{
		Name:        "token-altruism",
		Title:       "Altruism restores the token model",
		Description: "E1 as data: sweep altruism a under half-system ideal satiation",
		Substrate:   "token",
		Adversary:   AdversarySpec{Kind: "ideal", Fraction: 0.10, SatiateFraction: 0.5},
		Sweep:       SweepSpec{Axis: "params.altruism", From: 0, To: 0.1, Points: 8},
		Replicates:  3,
	})
	Register(&Spec{
		Name:        "token-trade-defended",
		Title:       "Trade attack vs rate-limited token collection",
		Description: "New ground: the trade lotus-eater against the Section 3 model with a per-peer token cap",
		Substrate:   "token",
		Adversary:   AdversarySpec{Kind: "trade", Fraction: 0.15},
		Defense:     DefenseSpec{Kind: "ratelimit", RateLimit: 4},
		Sweep:       SweepSpec{Axis: "adversary.satiateFraction", From: 0, To: 0.8, Points: 6},
		Replicates:  3,
	})
	Register(&Spec{
		Name:        "scrip-trade-satiation",
		Title:       "Earned-budget satiation of a scrip economy",
		Description: "E4a as data: a 5% trade attacker sweeps its satiation target against the money supply",
		Substrate:   "scrip",
		Adversary:   AdversarySpec{Kind: "trade", Fraction: 0.05},
		Sweep:       SweepSpec{Axis: "adversary.satiateFraction", From: 0, To: 0.8, Points: 8},
		Metric:      "satiated-targets",
		Replicates:  3,
	})
	Register(&Spec{
		Name:        "swarm-ideal",
		Title:       "Ideal satiation of a healthy swarm",
		Description: "E5's qualitative claim as data: satiating leechers barely hurts (often helps) a seeded swarm",
		Substrate:   "swarm",
		Adversary:   AdversarySpec{Kind: "ideal", Fraction: 0.10, SatiateFraction: 0.70},
		Sweep:       SweepSpec{Axis: "adversary.satiateFraction", From: 0, To: 0.6, Points: 6},
		Replicates:  3,
		Params:      map[string]float64{"uplink": 32},
	})
	Register(&Spec{
		Name:        "coding-ideal",
		Title:       "Ideal satiation vs plain dissemination",
		Description: "E6's baseline as data: plain-symbol gossip under a growing instant-satiation attack",
		Substrate:   "coding",
		Adversary:   AdversarySpec{Kind: "ideal", Fraction: 0.10, SatiateFraction: 0.70},
		Sweep:       SweepSpec{Axis: "adversary.satiateFraction", From: 0, To: 0.6, Points: 6},
		Replicates:  3,
	})

	// Big-N scenarios: the million-node fast path as data. Populations this
	// size are exactly what the sparse target sets, pooled round scratch,
	// and in-replicate sharding exist for; one replicate, no sweep, short
	// horizons keep a run in seconds while still exercising every hot path
	// at full width. `make bench` tracks their per-round cost in
	// BENCH_kernel.json.
	Register(&Spec{
		Name:        "gossip-1m",
		Title:       "Ideal lotus-eater vs a million-node BAR Gossip",
		Description: "single replicate at n=10^6: sparse satiation, pooled planning, sharded evaluation",
		Substrate:   "gossip",
		Nodes:       1_000_000,
		Rounds:      12,
		Replicates:  1,
		Adversary:   AdversarySpec{Kind: "ideal", Fraction: 0.02, SatiateFraction: 0.30},
		Params: map[string]float64{
			"updates":  1,
			"lifetime": 8,
			"copies":   64,
			"warmup":   2,
			"push":     2,
		},
	})
	Register(&Spec{
		Name:        "swarm-1m",
		Title:       "Ideal satiation of a million-leecher swarm",
		Description: "single replicate at n=10^6 leechers: O(n·degree) reciprocation state, sharded peer scoring",
		Substrate:   "swarm",
		Nodes:       1_000_000,
		Rounds:      30,
		Replicates:  1,
		Adversary:   AdversarySpec{Kind: "ideal", Fraction: 0.01, SatiateFraction: 0.10},
		Params: map[string]float64{
			"pieces":  32,
			"peerset": 8,
			"uplink":  4096,
		},
	})

	registerCrossProduct()
	registerAutoVariants()
	registerPopulationVariants()
}

// registerPopulationVariants exercises the population model's three axes
// as canned scenarios: rate-driven churn on every substrate that has
// lifecycle hooks, Zipf demand on the item-oriented substrates, and a
// heterogeneous class mix on the scrip economy. Small shapes keep each
// runnable in CI; everything here is ordinary spec data, so `-set
// population.churn.leaveRate=...` retunes them like any other knob.
func registerPopulationVariants() {
	churn := func(leave, join float64) *PopulationSpec {
		return &PopulationSpec{Churn: &ChurnSpec{LeaveRate: leave, JoinRate: join}}
	}
	zipf := func(s float64) *PopulationSpec {
		return &PopulationSpec{Popularity: &PopularitySpec{Kind: "zipf", Exponent: s}}
	}
	Register(&Spec{
		Name:        "gossip-trade-churn",
		Title:       "Trade lotus-eater vs a churning BAR Gossip",
		Description: "the trade attack with nodes joining and leaving: departures shrink the satiated set, arrivals are fresh targets",
		Substrate:   "gossip",
		Nodes:       100,
		Rounds:      40,
		Adversary:   AdversarySpec{Kind: "trade", Fraction: 0.15, SatiateFraction: 0.70},
		Sweep:       SweepSpec{Axis: "population.churn.leaveRate", From: 0, To: 0.05, Points: 4},
		Replicates:  2,
		Population:  churn(0, 0.10),
	})
	Register(&Spec{
		Name:        "token-churn",
		Title:       "Ideal satiation of a churning token collection",
		Description: "half-system satiation while 2% of nodes leave and 10% of the absent return each round",
		Substrate:   "token",
		Nodes:       96,
		Rounds:      60,
		Adversary:   AdversarySpec{Kind: "ideal", Fraction: 0.10, SatiateFraction: 0.5},
		Replicates:  3,
		Params:      map[string]float64{"tokens": 24},
		Population:  churn(0.02, 0.10),
	})
	Register(&Spec{
		Name:        "scrip-churn",
		Title:       "Earned-budget satiation of a churning scrip economy",
		Description: "the money-supply bound under churn: leavers take their wallets, arrivals bring fresh endowment",
		Substrate:   "scrip",
		Nodes:       120,
		Rounds:      6000,
		Adversary:   AdversarySpec{Kind: "trade", Fraction: 0.05, SatiateFraction: 0.5},
		Metric:      "satiated-targets",
		Replicates:  2,
		Population:  churn(0.001, 0.01),
	})
	Register(&Spec{
		Name:        "swarm-churn",
		Title:       "Ideal satiation of a churning swarm",
		Description: "leechers depart mid-download and rejoin empty; the torrent stays alive while arrivals are due",
		Substrate:   "swarm",
		Nodes:       60,
		Rounds:      250,
		Adversary:   AdversarySpec{Kind: "ideal", Fraction: 0.10, SatiateFraction: 0.3},
		Replicates:  2,
		Params:      map[string]float64{"pieces": 64, "uplink": 16},
		Population:  churn(0.01, 0.05),
	})
	Register(&Spec{
		Name:        "coding-churn",
		Title:       "Plain dissemination under churn",
		Description: "departures freeze information in unreachable nodes; rejoiners restart from one symbol",
		Substrate:   "coding",
		Nodes:       64,
		Rounds:      40,
		Adversary:   AdversarySpec{Kind: "ideal", Fraction: 0.10, SatiateFraction: 0.5},
		Replicates:  3,
		Params:      map[string]float64{"symbols": 16},
		Population:  churn(0.02, 0.10),
	})
	Register(&Spec{
		Name:        "gossip-zipf",
		Title:       "Zipf update demand vs the trade lotus-eater",
		Description: "popular updates seed wide, the tail seeds thin: skewed demand changes what satiation is worth",
		Substrate:   "gossip",
		Nodes:       100,
		Rounds:      40,
		Adversary:   AdversarySpec{Kind: "trade", Fraction: 0.15, SatiateFraction: 0.70},
		Sweep:       SweepSpec{Axis: "population.popularity.exponent", From: 0.2, To: 1.6, Points: 4},
		Replicates:  2,
		Population:  zipf(1.0),
	})
	Register(&Spec{
		Name:        "swarm-zipf",
		Title:       "Popularity-skewed rarest-first",
		Description: "weighted tie-breaking concentrates demand on popular pieces — the artificial last-pieces problem gets easier to induce",
		Substrate:   "swarm",
		Nodes:       60,
		Rounds:      250,
		Adversary:   AdversarySpec{Kind: "ideal", Fraction: 0.10, SatiateFraction: 0.3},
		Replicates:  2,
		Params:      map[string]float64{"pieces": 64, "uplink": 16},
		Population:  zipf(1.1),
	})
	Register(&Spec{
		Name:        "coding-zipf",
		Title:       "Zipf symbol demand vs plain dissemination",
		Description: "plain mode moves popular symbols first; coding is immune by construction (recodings span everything)",
		Substrate:   "coding",
		Nodes:       64,
		Rounds:      40,
		Adversary:   AdversarySpec{Kind: "ideal", Fraction: 0.10, SatiateFraction: 0.5},
		Replicates:  3,
		Params:      map[string]float64{"symbols": 16},
		Population:  zipf(1.2),
	})
	patience := 2.5
	altruism := 0.05
	Register(&Spec{
		Name:        "scrip-classes",
		Title:       "Heterogeneous scrip economy",
		Description: "a hoarder class (patience 2.5x) alongside a mildly altruistic majority: satiating hoarders costs the attacker more",
		Substrate:   "scrip",
		Nodes:       120,
		Rounds:      6000,
		Adversary:   AdversarySpec{Kind: "trade", Fraction: 0.05, SatiateFraction: 0.5},
		Metric:      "satiated-targets",
		Replicates:  2,
		Population: &PopulationSpec{Classes: []ClassSpec{
			{Name: "hoarders", Weight: 0.25, Patience: &patience},
			{Name: "regulars", Weight: 0.75, Altruism: &altruism},
		}},
	})
}

// registerAutoVariants derives adaptive-precision twins of the noisiest
// trade scenarios: same substrate, same adversary, same sweep, but each
// sweep point runs replicate waves until the metric mean's 95% CI
// half-width drops to 0.01 (or the 24-replicate budget is spent) instead
// of a fixed count. Quiet points — the x=0 baselines, the saturated tails —
// stop at two replicates; the noisy shoulder of the curve gets the budget.
func registerAutoVariants() {
	for _, name := range []string{"gossip-trade", "token-trade-defended", "scrip-trade-satiation"} {
		base, ok := Get(name)
		if !ok {
			panic(fmt.Sprintf("scenario: auto variant of unregistered %q", name))
		}
		base.Name += "-auto"
		if base.Title != "" {
			base.Title += " (adaptive)"
		}
		base.Description = "adaptive twin of " + name + ": CI-targeted replication, ±0.01 @ 95% per point"
		base.Replicates = 0
		base.Precision = &PrecisionSpec{HalfWidth: 0.01, MinReps: 2, MaxReps: 24, Batch: 4}
		Register(base)
	}

	// The million-leecher swarm joins the adaptive family now that a
	// replicate costs seconds rather than minutes: a sweep-less spec is a
	// single point, so the plan just runs waves at n=10^6 until the metric
	// CI tightens. The budget is deliberately small — each extra replicate
	// is a full million-node run.
	swarm1m, ok := Get("swarm-1m")
	if !ok {
		panic(`scenario: auto variant of unregistered "swarm-1m"`)
	}
	swarm1m.Name += "-auto"
	swarm1m.Title += " (adaptive)"
	swarm1m.Description = "adaptive twin of swarm-1m: CI-targeted replication, ±0.005 @ 95%, max 6 reps"
	swarm1m.Replicates = 0
	swarm1m.Precision = &PrecisionSpec{HalfWidth: 0.005, MinReps: 2, MaxReps: 6, Batch: 2}
	Register(swarm1m)
}

// registerCrossProduct generates the attack x substrate x defense grid: every
// attack kind against every substrate, undefended and rate-limited, each
// sweeping the attacker fraction. This is the paper's thesis as a test
// matrix — the same adversary strategy runs unmodified against five
// different systems — and the first time the trade lotus-eater meets the
// swarm and scrip economies.
func registerCrossProduct() {
	kinds := []string{"none", "crash", "ideal", "trade"}
	// Small-but-meaningful populations keep the full grid runnable in CI.
	shapes := map[string]struct {
		nodes, rounds int
		params        map[string]float64
	}{
		"gossip": {nodes: 120, rounds: 40},
		"token":  {nodes: 96, rounds: 60, params: map[string]float64{"tokens": 24}},
		"scrip":  {nodes: 120, rounds: 6000},
		"swarm":  {nodes: 60, rounds: 250, params: map[string]float64{"pieces": 64, "uplink": 16}},
		"coding": {nodes: 64, rounds: 40, params: map[string]float64{"symbols": 16}},
	}
	for _, substrate := range Substrates {
		shape := shapes[substrate]
		for _, kind := range kinds {
			for _, defended := range []bool{false, true} {
				name := fmt.Sprintf("x/%s-%s", kind, substrate)
				desc := fmt.Sprintf("cross-product: %s attack vs the %s substrate", kind, substrate)
				// Crash and trade act through the attacker's nodes, so the
				// controlled fraction is the natural axis. Ideal satiation is
				// delivered out of protocol — sweeping the satiated fraction
				// (at a fixed 10% placement) is what actually modulates it,
				// and keeps x = 0 a genuine no-attack baseline on every
				// substrate.
				adversary := AdversarySpec{Kind: kind, SatiateFraction: 0.70}
				axis := SweepSpec{Axis: "adversary.fraction", From: 0, To: 0.4, Points: 5}
				if kind == "ideal" {
					adversary.Fraction = 0.10
					axis = SweepSpec{Axis: "adversary.satiateFraction", From: 0, To: 0.7, Points: 5}
				}
				spec := &Spec{
					Name:        name,
					Description: desc,
					Substrate:   substrate,
					Nodes:       shape.nodes,
					Rounds:      shape.rounds,
					Adversary:   adversary,
					Sweep:       axis,
					Replicates:  2,
					Params:      shape.params,
				}
				if defended {
					spec.Name += "+ratelimit"
					spec.Description += ", rate-limit defense on"
					spec.Defense = DefenseSpec{Kind: "ratelimit", RateLimit: 4}
				}
				Register(spec)
			}
		}
	}
}
