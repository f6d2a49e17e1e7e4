package scenario

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"lotuseater/internal/attack"
	"lotuseater/internal/coding"
	"lotuseater/internal/defense"
	"lotuseater/internal/gossip"
	"lotuseater/internal/graph"
	"lotuseater/internal/scrip"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
	"lotuseater/internal/swarm"
	"lotuseater/internal/tokenmodel"
)

// substrate binds a simulator into the scenario engine: check a spec
// against the simulator's own rules, build one replicate as a sim.Model with
// the adversary and defense installed, and extract named metrics from its
// snapshot.
type substrate struct {
	defaultMetric string
	metrics       map[string]func(snap any) (float64, error)
	// windowed metrics group the run into params.epoch-round windows; they
	// are on the menu only when the spec sets that window (it also turns
	// on the per-node tracking they read).
	windowed map[string]func(snap any, window int) (float64, error)
	// check runs the simulator's own Config.Validate on the configuration
	// the substrate's config step derives from the spec; build derives the
	// same configuration and adds what a replicate draws.
	check func(s *Spec) error
	build func(s *Spec, rng *simrng.Source, ws *sim.Workspace, adv *attack.Strategy, def *defense.RateLimiter) (sim.Model, error)
}

// lookup returns the named metric as the spec would compute it.
func (b *substrate) lookup(spec *Spec, name string) (func(snap any) (float64, error), bool) {
	if fn, ok := b.metrics[name]; ok {
		return fn, true
	}
	if fn, ok := b.windowed[name]; ok {
		if w := int(spec.param("epoch", 0)); w > 0 {
			return func(snap any) (float64, error) { return fn(snap, w) }, true
		}
	}
	return nil, false
}

// menu lists the metric names a spec can ask for, sorted.
func (b *substrate) menu(spec *Spec) []string {
	names := slices.Collect(maps.Keys(b.metrics))
	if b.windowed != nil && spec.param("epoch", 0) > 0 {
		names = slices.AppendSeq(names, maps.Keys(b.windowed))
	}
	slices.Sort(names)
	return names
}

func (b *substrate) checkMetric(spec *Spec, name string) error {
	if _, ok := b.lookup(spec, name); ok {
		return nil
	}
	return fmt.Errorf("scenario: unknown metric %q (want %s)", name, strings.Join(b.menu(spec), "|"))
}

func (b *substrate) metric(spec *Spec, snap any) (float64, error) {
	name := spec.Metric
	if name == "" {
		name = b.defaultMetric
	}
	fn, ok := b.lookup(spec, name)
	if !ok {
		return 0, b.checkMetric(spec, name)
	}
	return fn(snap)
}

// sub returns the substrate binding for name, or nil.
func sub(name string) *substrate { return substrates[name] }

// newDefense compiles the spec's defense, nil for none, drawing the pooled
// per-worker limiter from the workspace when one is available
// (allocation-free at steady state) and a fresh one otherwise.
func newDefense(spec *Spec, ws *sim.Workspace) *defense.RateLimiter {
	if !spec.Defense.enabled() {
		return nil
	}
	if ws == nil {
		return defense.NewRateLimiter(spec.Defense.RateLimit)
	}
	return ws.RateLimiter(spec.Defense.RateLimit)
}

var substrates = map[string]*substrate{
	"gossip": {
		defaultMetric: "isolated-delivery",
		metrics: map[string]func(any) (float64, error){
			"isolated-delivery": metricOf(func(r gossip.Result) float64 { return r.Isolated.MeanDelivery }),
			"honest-delivery":   metricOf(func(r gossip.Result) float64 { return r.AllHonest.MeanDelivery }),
			"satiated-delivery": metricOf(func(r gossip.Result) float64 { return r.Satiated.MeanDelivery }),
			"usable-fraction":   metricOf(func(r gossip.Result) float64 { return r.Isolated.UsableFraction }),
			"evictions":         metricOf(func(r gossip.Result) float64 { return float64(r.Evictions) }),
		},
		windowed: map[string]func(any, int) (float64, error){
			"outage-nodes":       outageMetric(func(o outageStats) float64 { return float64(o.outaged) }),
			"nodes-with-outage":  outageMetric(func(o outageStats) float64 { return ratio(o.outaged, o.nodes) }),
			"mean-outage-epochs": outageMetric(func(o outageStats) float64 { return ratio(o.badWindows, o.nodes) }),
			"epochs":             outageMetric(func(o outageStats) float64 { return float64(o.epochs) }),
		},
		check: func(s *Spec) error {
			cfg, _, err := gossipConfig(s)
			if err != nil {
				return err
			}
			return s.runs(cfg, cfg.Nodes, cfg.Rounds)
		},
		build: func(s *Spec, rng *simrng.Source, ws *sim.Workspace, adv *attack.Strategy, def *defense.RateLimiter) (sim.Model, error) {
			cfg, weights, err := gossipConfig(s)
			if err != nil {
				return nil, err
			}
			opts := []gossip.Option{gossip.WithAdversary(adv), gossip.WithDefense(def)}
			assign := s.classAssignment(cfg.Nodes, rng)
			if alt := s.altruismByClass(assign, cfg.Altruism); alt != nil {
				opts = append(opts, gossip.WithNodeAltruism(alt))
			}
			if events := s.churnEvents(cfg.Nodes, cfg.Rounds, rng); len(events) > 0 {
				opts = append(opts, gossip.WithChurn(events))
			}
			if weights != nil {
				opts = append(opts, gossip.WithUpdateWeights(weights))
			}
			return gossip.New(cfg, rng.Uint64(), opts...)
		},
	},
	"token": {
		defaultMetric: "organic-completed",
		metrics: map[string]func(any) (float64, error){
			"organic-completed": metricOf(func(r tokenmodel.Result) float64 { return r.OrganicCompletedFraction }),
			"completed":         metricOf(func(r tokenmodel.Result) float64 { return r.CompletedFraction }),
			"mean-completion-round": metricOf(func(r tokenmodel.Result) float64 {
				return r.MeanCompletionRound
			}),
			"rare-coverage":     metricOf(func(r tokenmodel.Result) float64 { return r.TokenCoverage[0] }),
			"attacker-satiated": metricOf(func(r tokenmodel.Result) float64 { return float64(r.SatiatedByAttacker) }),
		},
		check: func(s *Spec) error {
			cfg, err := tokenConfig(s)
			if err != nil {
				return err
			}
			cfg.Graph = graph.FromEdges(0, nil) // drawn per replicate
			return s.runs(cfg, s.population(), cfg.Rounds)
		},
		build: func(s *Spec, rng *simrng.Source, ws *sim.Workspace, adv *attack.Strategy, def *defense.RateLimiter) (sim.Model, error) {
			cfg, err := tokenConfig(s)
			if err != nil {
				return nil, err
			}
			n := s.population()
			cfg.Graph = s.tokenGraph(n, rng)
			cfg.Allocation = s.rareAllocation(n, cfg.Tokens, rng)
			assign := s.classAssignment(n, rng)
			cfg.NodeAltruism = s.altruismByClass(assign, cfg.Altruism)
			cfg.NodeContacts = s.intsByClass(assign, cfg.Contacts, capacityOf)
			cfg.Churn = s.churnEvents(n, cfg.Rounds, rng)
			return tokenmodel.New(cfg, rng.Uint64(), tokenmodel.WithAdversary(adv),
				tokenmodel.WithDefense(def), tokenmodel.WithWorkspace(ws))
		},
	},
	"scrip": {
		defaultMetric: "non-target-availability",
		metrics: map[string]func(any) (float64, error){
			"non-target-availability": metricOf(func(r scrip.Result) float64 { return r.NonTargetAvailability }),
			"availability":            metricOf(func(r scrip.Result) float64 { return r.Availability }),
			"satiated-targets":        metricOf(func(r scrip.Result) float64 { return r.SatiatedTargetFraction }),
			"attacker-spent":          metricOf(func(r scrip.Result) float64 { return float64(r.AttackerSpent) }),
			"mean-utility":            metricOf(func(r scrip.Result) float64 { return r.MeanUtility }),
			"special-availability":    metricOf(func(r scrip.Result) float64 { return r.SpecialAvailability }),
		},
		check: func(s *Spec) error {
			cfg, err := scripConfig(s)
			if err != nil {
				return err
			}
			return s.runs(cfg, cfg.Agents, cfg.Rounds)
		},
		build: func(s *Spec, rng *simrng.Source, ws *sim.Workspace, adv *attack.Strategy, def *defense.RateLimiter) (sim.Model, error) {
			cfg, err := scripConfig(s)
			if err != nil {
				return nil, err
			}
			assign := s.classAssignment(cfg.Agents, rng)
			cfg.NodeAltruist = s.altruismByClass(assign, cfg.AltruistFraction)
			cfg.NodeBalance = s.intsByClass(assign, cfg.MoneyPerCapita, capacityOf)
			cfg.NodeThreshold = s.intsByClass(assign, cfg.Threshold, patienceOf)
			cfg.Churn = s.churnEvents(cfg.Agents, cfg.Rounds, rng)
			m, err := scrip.New(cfg, rng.Uint64(), scrip.WithAdversary(adv), scrip.WithDefense(def))
			if err != nil {
				return nil, err
			}
			return m, gift(m, cfg.Agents, s.param("mint", 0))
		},
	},
	"swarm": {
		defaultMetric: "completed",
		metrics: map[string]func(any) (float64, error){
			"completed":         metricOf(func(r swarm.Result) float64 { return r.CompletedFraction }),
			"mean-tick":         metricOf(func(r swarm.Result) float64 { return r.MeanCompletionTick }),
			"median-tick":       metricOf(func(r swarm.Result) float64 { return r.MedianCompletionTick }),
			"lost-pieces":       metricOf(func(r swarm.Result) float64 { return float64(r.LostPieces) }),
			"attacker-uploaded": metricOf(func(r swarm.Result) float64 { return float64(r.AttackerUploaded) }),
		},
		check: func(s *Spec) error {
			cfg, _, err := swarmConfig(s)
			if err != nil {
				return err
			}
			return s.runs(cfg, cfg.Leechers, cfg.Ticks)
		},
		build: func(s *Spec, rng *simrng.Source, ws *sim.Workspace, adv *attack.Strategy, def *defense.RateLimiter) (sim.Model, error) {
			cfg, weights, err := swarmConfig(s)
			if err != nil {
				return nil, err
			}
			opts := []swarm.Option{swarm.WithAdversary(adv), swarm.WithDefense(def)}
			if events := s.churnEvents(cfg.Leechers, cfg.Ticks, rng); len(events) > 0 {
				opts = append(opts, swarm.WithChurn(events))
			}
			if weights != nil {
				opts = append(opts, swarm.WithPieceWeights(weights))
			}
			return swarm.New(cfg, rng.Uint64(), opts...)
		},
	},
	"coding": {
		defaultMetric: "mean-progress",
		metrics: map[string]func(any) (float64, error){
			"mean-progress": metricOf(func(r coding.DisseminationResult) float64 { return r.MeanProgress }),
			"completed":     metricOf(func(r coding.DisseminationResult) float64 { return r.CompletedFraction }),
		},
		check: func(s *Spec) error {
			cfg, err := codingConfig(s)
			if err != nil {
				return err
			}
			cfg.Graph = graph.FromEdges(0, nil) // drawn per replicate
			return s.runs(cfg, s.population(), cfg.Rounds)
		},
		build: func(s *Spec, rng *simrng.Source, ws *sim.Workspace, adv *attack.Strategy, def *defense.RateLimiter) (sim.Model, error) {
			cfg, err := codingConfig(s)
			if err != nil {
				return nil, err
			}
			n := s.population()
			cfg.Graph = graph.Regularish(n, int(s.param("degree", 4)), rng.Child("graph"))
			cfg.Allocation = s.rareAllocation(n, cfg.Symbols, rng)
			assign := s.classAssignment(n, rng)
			cfg.NodeContacts = s.intsByClass(assign, cfg.Contacts, capacityOf)
			cfg.Churn = s.churnEvents(n, cfg.Rounds, rng)
			return coding.NewDissemination(cfg, rng.Uint64(), coding.WithAdversary(adv), coding.WithDefense(def))
		},
	},
}

// runs asks the simulator's own Validate whether it runs cfg, the
// configuration the spec derives for nodes nodes over rounds rounds. The
// simulator's error names its Config fields, so a refusal also names the
// spec values they came from: the node count, the horizon and each params
// key the spec sets.
func (s *Spec) runs(cfg interface{ Validate() error }, nodes, rounds int) error {
	err := cfg.Validate()
	if err == nil {
		return nil
	}
	from := fmt.Sprintf("nodes=%d rounds=%d", nodes, rounds)
	for _, k := range sortedKeys(s.Params) {
		from += fmt.Sprintf(" params.%s=%g", k, s.Params[k])
	}
	return fmt.Errorf("scenario: %s cannot run %s: %w", s.Substrate, from, err)
}

// The config steps below derive, without a draw, what a replicate's build
// derives from the spec: every scalar of the simulator's Config and the
// popularity weights. The build adds only what a replicate draws from its
// stream. Each step also refuses what the spec-to-config mapping itself
// cannot express, which no simulator can see.

// gossipConfig derives gossip's Config and its update weights, which gossip
// takes as an option.
func gossipConfig(s *Spec) (gossip.Config, []float64, error) {
	cfg := gossip.DefaultConfig()
	if s.Nodes > 0 {
		cfg.Nodes = s.Nodes
	}
	if s.Rounds > 0 {
		cfg.Rounds = s.Rounds
	}
	cfg.PushSize = int(s.param("push", float64(cfg.PushSize)))
	cfg.BalanceSlack = int(s.param("slack", float64(cfg.BalanceSlack)))
	cfg.UpdatesPerRound = int(s.param("updates", float64(cfg.UpdatesPerRound)))
	cfg.Lifetime = int(s.param("lifetime", float64(cfg.Lifetime)))
	cfg.CopiesSeeded = int(s.param("copies", float64(cfg.CopiesSeeded)))
	cfg.Warmup = int(s.param("warmup", float64(cfg.Warmup)))
	cfg.Altruism = s.param("altruism", cfg.Altruism)
	cfg.ObedientFraction = s.param("obedient", cfg.ObedientFraction)
	cfg.ReportThreshold = int(s.param("report", float64(cfg.ReportThreshold)))
	cfg.EvictAfterReports = int(s.param("evict", float64(cfg.EvictAfterReports)))
	cfg.TrackPerNode = s.param("epoch", 0) > 0
	if s.Defense.enabled() {
		// The defense is only consulted for obedient receivers;
		// default to a fully obedient population unless overridden.
		if _, ok := s.Params["obedient"]; !ok {
			cfg.ObedientFraction = 1
		}
	}
	if cl := s.classScalar(); cl != nil && cl.Altruism != nil {
		cfg.Altruism = *cl.Altruism
	}
	if live := float64(cfg.Lifetime) * float64(cfg.UpdatesPerRound); live > maxItems {
		return cfg, nil, fmt.Errorf("scenario: params.lifetime × params.updates = %g live updates exceeds %d", live, maxItems)
	}
	weights, err := s.popularityWeights(0)
	return cfg, weights, err
}

// tokenConfig derives the token model's Config except its graph, its rare
// allocation and the class traits, which a replicate draws.
func tokenConfig(s *Spec) (tokenmodel.Config, error) {
	cfg := tokenmodel.Config{
		Tokens:   int(s.param("tokens", 32)),
		Contacts: int(s.param("contacts", 2)),
		Altruism: s.param("altruism", 0),
		Rounds:   s.Rounds,
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 80
	}
	if cl := s.classScalar(); cl != nil {
		if cl.Altruism != nil {
			cfg.Altruism = *cl.Altruism
		}
		cfg.Contacts = scaleInt(cfg.Contacts, cl.Capacity)
	}
	n := s.population()
	if s.param("graph", 0) == 2 {
		if side := int(math.Sqrt(float64(n))); side*side != n {
			return cfg, fmt.Errorf("scenario: params.graph=2 (grid) needs a square node count, got %d", n)
		}
	}
	return cfg, s.checkRare(n, cfg.Tokens)
}

// scripConfig derives scrip's Config except the class traits, which a
// replicate draws.
func scripConfig(s *Spec) (scrip.Config, error) {
	cfg := scrip.DefaultConfig()
	if s.Nodes > 0 {
		cfg.Agents = s.Nodes
	}
	if s.Rounds > 0 {
		cfg.Rounds = s.Rounds
	}
	cfg.Threshold = int(s.param("threshold", float64(cfg.Threshold)))
	cfg.MoneyPerCapita = int(s.param("money", float64(cfg.MoneyPerCapita)))
	cfg.Cost = s.param("cost", cfg.Cost)
	cfg.AltruistFraction = s.param("altruists", cfg.AltruistFraction)
	cfg.SpecialProviders = int(s.param("special", 0))
	cfg.SpecialRequestFraction = s.param("specialReq", 0)
	cfg.AltruistProviders = int(s.param("altruistProviders", 0))
	cfg.AttackBudget = int(s.param("budget", 0))
	if cl := s.classScalar(); cl != nil {
		if cl.Altruism != nil {
			cfg.AltruistFraction = *cl.Altruism
		}
		cfg.MoneyPerCapita = scaleInt(cfg.MoneyPerCapita, cl.Capacity)
		cfg.Threshold = scaleInt(cfg.Threshold, cl.Patience)
	}
	if kind := s.Adversary.Kind; kind != "" && kind != "none" && attack.Share(s.Adversary.Fraction, cfg.Agents) == cfg.Agents {
		// The economy would have nobody to request service.
		return cfg, fmt.Errorf("scenario: adversary.fraction=%g places all %d scrip agents, leaving no requester", s.Adversary.Fraction, cfg.Agents)
	}
	return cfg, nil
}

// swarmConfig derives the swarm's Config and its piece weights, which the
// swarm takes as an option.
func swarmConfig(s *Spec) (swarm.Config, []float64, error) {
	cfg := swarm.DefaultConfig()
	if s.Nodes > 0 {
		cfg.Leechers = s.Nodes
	}
	if s.Rounds > 0 {
		cfg.Ticks = s.Rounds
	}
	cfg.Pieces = int(s.param("pieces", float64(cfg.Pieces)))
	cfg.UploadSlots = int(s.param("slots", float64(cfg.UploadSlots)))
	cfg.PeerSetSize = int(s.param("peerset", float64(cfg.PeerSetSize)))
	cfg.AttackerUplink = int(s.param("uplink", float64(cfg.AttackerUplink)))
	cfg.SeedDepartTick = int(s.param("seedDepart", float64(cfg.SeedDepartTick)))
	cfg.SeedAfterComplete = s.param("seedAfter", 1) != 0
	cfg.Selection = swarm.Selection(s.param("selection", float64(cfg.Selection)))
	weights, err := s.popularityWeights(cfg.Pieces)
	return cfg, weights, err
}

// codingConfig derives the dissemination Config except its graph, its
// rare allocation and the class traits, which a replicate draws.
func codingConfig(s *Spec) (coding.DisseminationConfig, error) {
	cfg := coding.DisseminationConfig{
		Symbols:     int(s.param("symbols", 24)),
		PayloadSize: int(s.param("payload", 32)),
		Contacts:    int(s.param("contacts", 2)),
		Rounds:      s.Rounds,
		Coded:       s.param("coded", 0) != 0,
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 50
	}
	if cl := s.classScalar(); cl != nil {
		cfg.Contacts = scaleInt(cfg.Contacts, cl.Capacity)
	}
	if err := s.checkRare(s.population(), cfg.Symbols); err != nil {
		return cfg, err
	}
	var err error
	cfg.SymbolWeights, err = s.popularityWeights(cfg.Symbols)
	return cfg, err
}

// metricOf lifts a statistic of one substrate's result type to a metric
// over the kernel's untyped snapshots.
func metricOf[R any](f func(R) float64) func(any) (float64, error) {
	return func(snap any) (float64, error) {
		r, ok := snap.(R)
		if !ok {
			return 0, fmt.Errorf("scenario: snapshot is %T, want %T", snap, r)
		}
		return f(r), nil
	}
}

// outageStats groups each honest node's measured rounds into windows of a
// fixed number of rounds and counts the windows whose delivery fell below
// the usability threshold — Section 2's "intermittently unusable" service.
type outageStats struct {
	nodes      int // honest nodes with a measured window
	outaged    int // ... with at least one unusable window
	badWindows int // unusable windows, summed over nodes
	epochs     int // the most measured windows any node had
}

func outages(r gossip.Result, window int) outageStats {
	var o outageStats
	for _, rounds := range r.NodeRoundDelivery {
		windows, bad := 0, 0
		cur, sum, n := -1, 0.0, 0
		flush := func() {
			if n == 0 {
				return
			}
			windows++
			if sum/float64(n) < r.Cfg.UsableThreshold {
				bad++
			}
		}
		for round, frac := range rounds {
			if frac < 0 {
				continue // unmeasured round, or an attacker node
			}
			if w := round / window; w != cur {
				flush()
				cur, sum, n = w, 0, 0
			}
			sum += frac
			n++
		}
		flush()
		if windows == 0 {
			continue
		}
		o.nodes++
		o.epochs = max(o.epochs, windows)
		o.badWindows += bad
		if bad > 0 {
			o.outaged++
		}
	}
	return o
}

func outageMetric(f func(outageStats) float64) func(any, int) (float64, error) {
	return func(snap any, window int) (float64, error) {
		return metricOf(func(r gossip.Result) float64 { return f(outages(r, window)) })(snap)
	}
}

// ratio is num/den, or 0 for an empty denominator.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
