package scenario

import (
	"fmt"
	"maps"
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

// substrate binds a simulator into the scenario engine: build one replicate
// as a sim.Model with the adversary and defense installed, and extract
// named metrics from its snapshot.
type substrate struct {
	defaultMetric string
	metrics       map[string]func(snap any) (float64, error)
	// windowed metrics group the run into params.epoch-round windows; they
	// are on the menu only when the spec sets that window (it also turns
	// on the per-node tracking they read).
	windowed map[string]func(snap any, window int) (float64, error)
	build    func(s *Spec, rng *simrng.Source, ws *sim.Workspace, adv sim.Adversary, def sim.Defense) (sim.Model, error)
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

// newDefense compiles the spec's defense, drawing the pooled per-worker
// instance from the workspace when one is available (allocation-free at
// steady state) and a fresh one otherwise.
func newDefense(spec *Spec, ws *sim.Workspace) sim.Defense {
	if !spec.Defense.enabled() {
		return nil
	}
	cap := spec.Defense.RateLimit
	if ws == nil {
		return defense.NewRateLimiter(cap)
	}
	return ws.Defense(fmt.Sprintf("ratelimit/%d", cap), func() sim.Defense {
		return defense.NewRateLimiter(cap)
	})
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
		build: func(s *Spec, rng *simrng.Source, ws *sim.Workspace, adv sim.Adversary, def sim.Defense) (sim.Model, error) {
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
			if def != nil {
				// The defense is only consulted for obedient receivers;
				// default to a fully obedient population unless overridden.
				if _, ok := s.Params["obedient"]; !ok {
					cfg.ObedientFraction = 1
				}
			}
			if cl := s.classScalar(); cl != nil && cl.Altruism != nil {
				cfg.Altruism = *cl.Altruism
			}
			opts := []gossip.Option{gossip.WithAdversary(adv)}
			if def != nil {
				opts = append(opts, gossip.WithDefense(def))
			}
			assign := s.classAssignment(cfg.Nodes, rng)
			if alt := s.altruismByClass(assign, cfg.Altruism); alt != nil {
				opts = append(opts, gossip.WithNodeAltruism(alt))
			}
			if events := s.churnEvents(cfg.Nodes, cfg.Rounds, rng); len(events) > 0 {
				opts = append(opts, gossip.WithChurn(events))
			}
			weights, err := s.popularityWeights(0)
			if err != nil {
				return nil, err
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
		build: func(s *Spec, rng *simrng.Source, ws *sim.Workspace, adv sim.Adversary, def sim.Defense) (sim.Model, error) {
			n := s.population()
			rounds := s.Rounds
			if rounds <= 0 {
				rounds = 80
			}
			tokens := int(s.param("tokens", 32))
			cfg := tokenmodel.Config{
				Graph:      s.tokenGraph(n, rng),
				Tokens:     tokens,
				Contacts:   int(s.param("contacts", 2)),
				Altruism:   s.param("altruism", 0),
				Rounds:     rounds,
				Allocation: s.rareAllocation(n, tokens, rng),
			}
			if cl := s.classScalar(); cl != nil {
				if cl.Altruism != nil {
					cfg.Altruism = *cl.Altruism
				}
				cfg.Contacts = scaleInt(cfg.Contacts, cl.Capacity)
			}
			assign := s.classAssignment(n, rng)
			cfg.NodeAltruism = s.altruismByClass(assign, cfg.Altruism)
			cfg.NodeContacts = s.intsByClass(assign, cfg.Contacts, capacityOf)
			cfg.Churn = s.churnEvents(n, rounds, rng)
			opts := []tokenmodel.Option{
				tokenmodel.WithAdversary(adv),
				tokenmodel.WithWorkspace(ws),
			}
			if def != nil {
				opts = append(opts, tokenmodel.WithDefense(def))
			}
			return tokenmodel.New(cfg, rng.Uint64(), opts...)
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
		build: func(s *Spec, rng *simrng.Source, ws *sim.Workspace, adv sim.Adversary, def sim.Defense) (sim.Model, error) {
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
			assign := s.classAssignment(cfg.Agents, rng)
			cfg.NodeAltruist = s.altruismByClass(assign, cfg.AltruistFraction)
			cfg.NodeBalance = s.intsByClass(assign, cfg.MoneyPerCapita, capacityOf)
			cfg.NodeThreshold = s.intsByClass(assign, cfg.Threshold, patienceOf)
			cfg.Churn = s.churnEvents(cfg.Agents, cfg.Rounds, rng)
			opts := []scrip.Option{scrip.WithAdversary(adv)}
			if def != nil {
				opts = append(opts, scrip.WithDefense(def))
			}
			m, err := scrip.New(cfg, rng.Uint64(), opts...)
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
		build: func(s *Spec, rng *simrng.Source, ws *sim.Workspace, adv sim.Adversary, def sim.Defense) (sim.Model, error) {
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
			opts := []swarm.Option{swarm.WithAdversary(adv)}
			if def != nil {
				opts = append(opts, swarm.WithDefense(def))
			}
			if events := s.churnEvents(cfg.Leechers, cfg.Ticks, rng); len(events) > 0 {
				opts = append(opts, swarm.WithChurn(events))
			}
			weights, err := s.popularityWeights(cfg.Pieces)
			if err != nil {
				return nil, err
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
		build: func(s *Spec, rng *simrng.Source, ws *sim.Workspace, adv sim.Adversary, def sim.Defense) (sim.Model, error) {
			n := s.population()
			rounds := s.Rounds
			if rounds <= 0 {
				rounds = 50
			}
			deg := int(s.param("degree", 4))
			symbols := int(s.param("symbols", 24))
			cfg := coding.DisseminationConfig{
				Graph:       graph.RandomRegularish(n, deg, rng.Child("graph")),
				Symbols:     symbols,
				PayloadSize: int(s.param("payload", 32)),
				Contacts:    int(s.param("contacts", 2)),
				Rounds:      rounds,
				Coded:       s.param("coded", 0) != 0,
				Allocation:  s.rareAllocation(n, symbols, rng),
			}
			if cl := s.classScalar(); cl != nil {
				cfg.Contacts = scaleInt(cfg.Contacts, cl.Capacity)
			}
			assign := s.classAssignment(n, rng)
			cfg.NodeContacts = s.intsByClass(assign, cfg.Contacts, capacityOf)
			cfg.Churn = s.churnEvents(n, rounds, rng)
			weights, err := s.popularityWeights(cfg.Symbols)
			if err != nil {
				return nil, err
			}
			cfg.SymbolWeights = weights
			opts := []coding.DisseminationOption{coding.WithAdversary(adv)}
			if def != nil {
				opts = append(opts, coding.WithDefense(def))
			}
			return coding.NewDissemination(cfg, rng.Uint64(), opts...)
		},
	},
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

// Interface conformance pins for the strategy layer: the canonical attack
// and defense implementations must satisfy the kernel's hook contracts.
var (
	_ sim.Adversary       = (*attack.Strategy)(nil)
	_ sim.ProtocolTrader  = (*attack.Strategy)(nil)
	_ sim.InstantSatiator = (*attack.Strategy)(nil)
	_ sim.DepartureAware  = (*attack.Strategy)(nil)
	_ sim.Defense         = (*defense.RateLimiter)(nil)
)
