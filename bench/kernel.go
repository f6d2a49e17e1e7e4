package main

import (
	"fmt"
	"sync"
	"time"

	"lotuseater/internal/gossip"
	"lotuseater/internal/population"
	"lotuseater/internal/scenario"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
	"lotuseater/internal/swarm"
)

// The traced run of churn-100k needs spans inside a replicate, which
// scenario.FoldWindow does not expose. So the bench owns the sim.Build for
// the two substrates that workload runs: it constructs
// each model through the substrate's public constructor exactly as
// internal/scenario/substrate.go does, and wraps it to time Step and
// Snapshot. parity_test.go pins the observations bit for bit against the
// engine's own build, so a drift in either fails loudly.

// kernelStats aggregates one traced pass's kernel timings by substrate.
type kernelStats struct {
	mu       sync.Mutex
	build    map[string]time.Duration
	steps    map[string][]time.Duration
	snapshot map[string]time.Duration
	phaseNs  map[string]float64 // swarm phase wall time, summed over replicates
	ticks    int                // swarm ticks the phase sums cover
}

func newKernelStats() *kernelStats {
	return &kernelStats{
		build:    map[string]time.Duration{},
		steps:    map[string][]time.Duration{},
		snapshot: map[string]time.Duration{},
		phaseNs:  map[string]float64{},
	}
}

// timedModel wraps one replicate's model, recording a span per Step and for
// the Snapshot, and merges the replicate's timings into the pass's stats
// once it is snapshotted.
type timedModel struct {
	sim.Model
	sub   string
	trace string
	rep   int64 // the replicate's span
	tr    *tracer
	ks    *kernelStats
	build time.Duration
	steps []time.Duration
	prof  *swarm.PhaseProfile
}

func (m *timedModel) Step() error {
	start := time.Now()
	err := m.Model.Step()
	end := time.Now()
	m.steps = append(m.steps, end.Sub(start))
	m.tr.add("sim.step", m.trace, m.rep, start, end)
	return err
}

func (m *timedModel) Snapshot() (any, error) {
	start := time.Now()
	snap, err := m.Model.Snapshot()
	end := time.Now()
	m.tr.add("sim.snapshot", m.trace, m.rep, start, end)
	m.tr.close(m.rep)

	ks := m.ks
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.build[m.sub] += m.build
	ks.steps[m.sub] = append(ks.steps[m.sub], m.steps...)
	ks.snapshot[m.sub] += end.Sub(start)
	if m.prof != nil {
		for name, ns := range m.prof.Phases() {
			ks.phaseNs[name] += ns
		}
		ks.ticks += m.prof.Ticks
	}
	return snap, err
}

// kernelBuild returns the bench-owned build for a resolved point spec and
// the function that reads the spec's metric from a replicate's snapshot.
// Replicate spans are children of parent.
func kernelBuild(pt *scenario.Spec, tr *tracer, trace string, parent int64, ks *kernelStats) (sim.Build, func(any) (float64, error), error) {
	if err := mirrorable(pt); err != nil {
		return nil, nil, err
	}
	param := func(key string, def float64) float64 {
		if v, ok := pt.Params[key]; ok {
			return v
		}
		return def
	}
	// construct builds the bare model; build, below, times it and wraps it.
	var construct func(rng *simrng.Source, prof *swarm.PhaseProfile) (sim.Model, error)
	var metric func(any) (float64, error)
	switch pt.Substrate {
	case "gossip":
		if pt.Metric != "" && pt.Metric != "isolated-delivery" {
			return nil, nil, fmt.Errorf("bench: kernel build reads only gossip's isolated-delivery, not %q", pt.Metric)
		}
		cfg := gossip.DefaultConfig()
		if pt.Nodes > 0 {
			cfg.Nodes = pt.Nodes
		}
		if pt.Rounds > 0 {
			cfg.Rounds = pt.Rounds
		}
		cfg.PushSize = int(param("push", float64(cfg.PushSize)))
		cfg.BalanceSlack = int(param("slack", float64(cfg.BalanceSlack)))
		cfg.UpdatesPerRound = int(param("updates", float64(cfg.UpdatesPerRound)))
		cfg.Lifetime = int(param("lifetime", float64(cfg.Lifetime)))
		cfg.CopiesSeeded = int(param("copies", float64(cfg.CopiesSeeded)))
		cfg.Warmup = int(param("warmup", float64(cfg.Warmup)))
		cfg.Altruism = param("altruism", cfg.Altruism)
		cfg.ObedientFraction = param("obedient", cfg.ObedientFraction)
		weights := popularity(pt, 0)
		construct = func(rng *simrng.Source, _ *swarm.PhaseProfile) (sim.Model, error) {
			adv, err := pt.Adversary.Strategy()
			if err != nil {
				return nil, err
			}
			opts := []gossip.Option{gossip.WithAdversary(adv)}
			if events := churnEvents(pt, cfg.Nodes, cfg.Rounds, rng); len(events) > 0 {
				opts = append(opts, gossip.WithChurn(events))
			}
			if weights != nil {
				opts = append(opts, gossip.WithUpdateWeights(weights))
			}
			return gossip.New(cfg, rng.Uint64(), opts...)
		}
		metric = func(snap any) (float64, error) {
			r, ok := snap.(gossip.Result)
			if !ok {
				return 0, fmt.Errorf("bench: snapshot is %T, want gossip.Result", snap)
			}
			return r.Isolated.MeanDelivery, nil
		}
	case "swarm":
		if pt.Metric != "" && pt.Metric != "completed" {
			return nil, nil, fmt.Errorf("bench: kernel build reads only swarm's completed, not %q", pt.Metric)
		}
		cfg := swarm.DefaultConfig()
		if pt.Nodes > 0 {
			cfg.Leechers = pt.Nodes
		}
		if pt.Rounds > 0 {
			cfg.Ticks = pt.Rounds
		}
		cfg.Pieces = int(param("pieces", float64(cfg.Pieces)))
		cfg.UploadSlots = int(param("slots", float64(cfg.UploadSlots)))
		cfg.PeerSetSize = int(param("peerset", float64(cfg.PeerSetSize)))
		cfg.AttackerUplink = int(param("uplink", 16))
		cfg.SeedDepartTick = int(param("seedDepart", float64(cfg.SeedDepartTick)))
		cfg.SeedAfterComplete = param("seedAfter", 1) != 0
		weights := popularity(pt, cfg.Pieces)
		construct = func(rng *simrng.Source, prof *swarm.PhaseProfile) (sim.Model, error) {
			adv, err := pt.Adversary.Strategy()
			if err != nil {
				return nil, err
			}
			opts := []swarm.Option{swarm.WithAdversary(adv)}
			if events := churnEvents(pt, cfg.Leechers, cfg.Ticks, rng); len(events) > 0 {
				opts = append(opts, swarm.WithChurn(events))
			}
			if weights != nil {
				opts = append(opts, swarm.WithPieceWeights(weights))
			}
			opts = append(opts, swarm.WithPhaseProfile(prof))
			return swarm.New(cfg, rng.Uint64(), opts...)
		}
		metric = func(snap any) (float64, error) {
			r, ok := snap.(swarm.Result)
			if !ok {
				return 0, fmt.Errorf("bench: snapshot is %T, want swarm.Result", snap)
			}
			return r.CompletedFraction, nil
		}
	default:
		return nil, nil, fmt.Errorf("bench: no kernel build for substrate %q", pt.Substrate)
	}

	sub := pt.Substrate
	build := func(rep int, rng *simrng.Source, ws *sim.Workspace) (sim.Model, error) {
		repSpan := tr.open("sim.replicate", trace, parent)
		var prof *swarm.PhaseProfile
		if sub == "swarm" {
			prof = &swarm.PhaseProfile{}
		}
		start := time.Now()
		m, err := construct(rng, prof)
		end := time.Now()
		tr.add("sim.build", trace, repSpan, start, end)
		if err != nil {
			return nil, err
		}
		return &timedModel{Model: m, sub: sub, trace: trace, rep: repSpan, tr: tr, ks: ks, build: end.Sub(start), prof: prof}, nil
	}
	return build, metric, nil
}

// mirrorable rejects the spec features kernelBuild does not reproduce, so
// an unmirrored spec fails instead of silently measuring another program.
func mirrorable(pt *scenario.Spec) error {
	if pt.Defense.Kind == "ratelimit" && pt.Defense.RateLimit > 0 {
		return fmt.Errorf("bench: kernel build does not mirror defenses (%s)", pt.Name)
	}
	if p := pt.Population; p != nil {
		switch {
		case len(p.Classes) > 0:
			return fmt.Errorf("bench: kernel build does not mirror agent classes (%s)", pt.Name)
		case p.Churn != nil && len(p.Churn.Trace) > 0:
			return fmt.Errorf("bench: kernel build does not mirror churn traces (%s)", pt.Name)
		case p.Popularity != nil && p.Popularity.Kind == "weights":
			return fmt.Errorf("bench: kernel build does not mirror explicit popularity weights (%s)", pt.Name)
		}
	}
	return nil
}

// churnEvents synthesizes a rate-driven churn schedule exactly as the
// scenario engine does: from the replicate stream's "pop-churn" child, with
// at least two nodes or a tenth of the population kept present.
func churnEvents(pt *scenario.Spec, n, rounds int, rng *simrng.Source) []population.Event {
	p := pt.Population
	if p == nil || p.Churn == nil || (p.Churn.LeaveRate <= 0 && p.Churn.JoinRate <= 0) {
		return nil
	}
	c := p.Churn
	return population.Synthesize(
		population.Rates{LeaveRate: c.LeaveRate, JoinRate: c.JoinRate, Start: c.Start},
		n, rounds, max(2, n/10), rng.Child("pop-churn"))
}

// popularity compiles a Zipf popularity block over items (0 = the spec's
// Items, else the engine's 64-item catalog), nil when demand is uniform.
func popularity(pt *scenario.Spec, items int) []float64 {
	p := pt.Population
	if p == nil || p.Popularity == nil || p.Popularity.Kind != "zipf" {
		return nil
	}
	k := items
	if k <= 0 {
		k = p.Popularity.Items
	}
	if k <= 0 {
		k = 64
	}
	w := population.ZipfWeights(k, p.Popularity.Exponent)
	if population.Uniform(w, 0) {
		return nil
	}
	return w
}
