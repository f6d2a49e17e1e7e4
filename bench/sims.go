package main

import (
	"fmt"
	"math"
	"time"

	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
	"lotuseater/internal/sim"
)

// item is one registry scenario a sim workload runs every pass.
type item struct {
	name string
	sets []string // -set overrides applied to the registry spec
	reps int      // RunOptions.Replicates (0 = the spec's own count or plan)
}

// resolved is an item with its spec looked up and overridden.
type resolved struct {
	spec *scenario.Spec
	opts scenario.RunOptions
}

// Registry shapes of the churn-100k workload: the population scenarios at a
// mid-size working set, one replicate per point, gossip with gossip-1m's
// parameters.
var (
	churnGossipSets = []string{"nodes=100000", "rounds=12", "sweep.points=2", "replicates=1",
		"params.updates=1", "params.lifetime=8", "params.copies=64", "params.warmup=2", "params.push=2"}
	churnSwarmSets = []string{"nodes=100000", "rounds=16", "replicates=1"}
)

// simItems lists each sim workload's scenarios. A pass of either workload
// takes about 3 s on one core, so a run holds about ten. small shrinks them
// for the smoke test: fewer replicates, a smaller adaptive budget, or 3000
// nodes.
func simItems(workload string, small bool) []item {
	shrinkNodes := func(sets []string) []string {
		if !small {
			return sets
		}
		return append(append([]string(nil), sets...), "nodes=3000")
	}
	switch workload {
	case "paper-figures":
		items := []item{
			{name: "gossip-trade", reps: 2},
			{name: "gossip-trade-push10", reps: 2},
			{name: "gossip-ratelimit", reps: 2},
			{name: "scrip-trade-satiation", reps: 1},
			{name: "swarm-ideal", reps: 6},
			{name: "token-altruism", reps: 16},
			{name: "coding-ideal", reps: 16},
			{name: "gossip-trade-auto", sets: []string{"precision.maxReps=6"}},
		}
		if small {
			for i := range items {
				if items[i].reps > 0 {
					items[i].reps = min(items[i].reps, 2)
				} else {
					items[i].sets = []string{"precision.maxReps=4"}
				}
			}
		}
		return items
	case "churn-100k":
		return []item{
			{name: "gossip-trade-churn", sets: shrinkNodes(churnGossipSets)},
			{name: "gossip-zipf", sets: shrinkNodes(churnGossipSets)},
			{name: "swarm-churn", sets: shrinkNodes(churnSwarmSets)},
			{name: "swarm-zipf", sets: shrinkNodes(churnSwarmSets)},
		}
	}
	return nil
}

func resolveItems(items []item) ([]resolved, error) {
	out := make([]resolved, len(items))
	for i, it := range items {
		spec, ok := scenario.Get(it.name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown scenario %q", it.name)
		}
		if err := spec.ApplySets(it.sets); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", it.name, err)
		}
		out[i] = resolved{spec: spec, opts: scenario.RunOptions{Replicates: it.reps}}
	}
	return out, nil
}

// The set-up pass only has to load code, start the worker pool and size
// the allocator, so it runs large populations at a twentieth of their
// size, but no fewer than warmupMinNodes.
const (
	warmupShrink   = 20
	warmupMinNodes = 5000
)

// warmup returns the set-up pass's version of the resolved items: one
// replicate per point, two under an adaptive plan, large populations
// shrunk.
func warmup(items []resolved) []resolved {
	out := make([]resolved, len(items))
	for i, r := range items {
		spec := r.spec.Clone()
		if spec.Precision != nil {
			spec.Precision.MinReps, spec.Precision.MaxReps = 2, 2
		}
		if spec.Nodes > warmupMinNodes {
			spec.Nodes = max(spec.Nodes/warmupShrink, warmupMinNodes)
		}
		out[i] = resolved{spec: spec, opts: scenario.RunOptions{Replicates: 1}}
	}
	return out
}

// simWorkload runs a list of registry scenarios per pass. Untraced passes
// call scenario.Run; the traced pass decomposes each fixed-replication
// scenario into the engine's public steps (PlanOf, PointSpec, FoldWindow,
// Assemble, CanonicalJSON) and, when kernel is set, folds through the
// bench-owned build so steps and snapshots get spans.
type simWorkload struct {
	name   string
	seed   uint64
	small  bool
	kernel bool
	tally  *tally

	items  []resolved
	passes []simPass
}

// simPass is what one pass measured.
type simPass struct {
	bySub map[string]time.Duration // wall time in each substrate's scenarios
	arts  []*metrics.Artifact      // per item; nil where the run failed

	// traced passes only
	foldBySub map[string]time.Duration
	repsBySub map[string]int
	gaps      []time.Duration
	kernel    *kernelStats
}

func (w *simWorkload) setup() error {
	items, err := resolveItems(simItems(w.name, w.small))
	if err != nil {
		return err
	}
	w.items = items
	for _, r := range warmup(items) {
		if _, err := scenario.Run(r.spec, w.seed, r.opts); err != nil {
			return fmt.Errorf("bench: warm-up %s: %w", r.spec.Name, err)
		}
	}
	return nil
}

func (w *simWorkload) pass(tr *tracer, passSpan int64) {
	p := simPass{bySub: map[string]time.Duration{}, arts: make([]*metrics.Artifact, len(w.items))}
	if tr != nil {
		p.foldBySub = map[string]time.Duration{}
		p.repsBySub = map[string]int{}
		p.kernel = newKernelStats()
	}
	for i, r := range w.items {
		start := time.Now()
		var a *metrics.Artifact
		var err error
		if tr == nil {
			a, err = scenario.Run(r.spec, w.seed, r.opts)
		} else {
			a, err = w.traced(r, tr, passSpan, &p)
		}
		p.bySub[r.spec.Substrate] += time.Since(start)
		w.tally.op(err)
		p.arts[i] = a
	}
	w.passes = append(w.passes, p)
}

// traced runs one scenario through the engine's public steps with a span
// around each. The artifact is byte-identical to scenario.Run's (checked
// in-command against the untraced pass, and by parity_test.go).
func (w *simWorkload) traced(r resolved, tr *tracer, passSpan int64, p *simPass) (*metrics.Artifact, error) {
	spec, trace := r.spec, r.spec.Name
	root := tr.open("scenario.run", trace, passSpan)
	defer tr.close(root)
	id := tr.open("scenario.plan_of", trace, root)
	ep := scenario.PlanOf(spec, r.opts)
	tr.close(id)
	if ep.Adaptive {
		// Adaptive waves are internal to scenario.Run: one span.
		return scenario.Run(spec, w.seed, r.opts)
	}
	results := make([]scenario.PointResult, 0, len(ep.Xs))
	for _, x := range ep.Xs {
		id := tr.open("scenario.point_spec", trace, root)
		pt, err := spec.PointSpec(x)
		tr.close(id)
		if err != nil {
			return nil, err
		}
		st := metrics.NewStream()
		var last time.Time
		emit := func(rep int, y float64) {
			now := time.Now()
			if !last.IsZero() {
				p.gaps = append(p.gaps, now.Sub(last))
			}
			last = now
			st.Add(y)
			p.repsBySub[spec.Substrate]++
		}
		start := time.Now()
		if w.kernel {
			id = tr.open("sim.fold_range", trace, root)
			err = foldKernel(pt, w.seed, ep.Replicates, emit, tr, trace, id, p.kernel)
		} else {
			id = tr.open("scenario.fold_window", trace, root)
			err = scenario.FoldWindow(pt, w.seed, 0, ep.Replicates, 0, emit)
		}
		tr.close(id)
		p.foldBySub[spec.Substrate] += time.Since(start)
		if err != nil {
			return nil, err
		}
		results = append(results, scenario.PointResult{X: x, Stream: st})
	}
	id = tr.open("scenario.assemble", trace, root)
	a, err := scenario.Assemble(spec, r.opts, results)
	tr.close(id)
	if err != nil {
		return nil, err
	}
	id = tr.open("metrics.encode", trace, root)
	_, err = a.CanonicalJSON()
	tr.close(id)
	return a, err
}

// foldKernel folds replicates [0, n) of a resolved point spec through the
// bench-owned build, emitting each replicate's metric in replicate order —
// scenario.FoldWindow with the kernel exposed.
func foldKernel(pt *scenario.Spec, seed uint64, n int, emit func(rep int, y float64), tr *tracer, trace string, parent int64, ks *kernelStats) error {
	build, metric, err := kernelBuild(pt, tr, trace, parent, ks)
	if err != nil {
		return err
	}
	return sim.Runner{}.FoldRange(seed, 0, n, build, func(rep int, snap any) error {
		y, err := metric(snap)
		if err != nil {
			return err
		}
		emit(rep, y)
		return nil
	})
}

// check verifies the passes: every scenario ran, every artifact is
// well-formed, all passes agree byte for byte, and on paper-figures the
// paper's claim directions hold.
func (w *simWorkload) check() {
	t := w.tally
	first := w.passes[0]
	addrs := make([]string, len(w.items))
	for i, a := range first.arts {
		if a == nil {
			continue
		}
		addr, err := a.Address()
		t.op(err)
		addrs[i] = addr
		t.check(wellFormed(a, w.items[i]), "%s: artifact malformed (want a finite mean in [0,1] at each of %d points)",
			w.items[i].spec.Name, len(scenario.PlanOf(w.items[i].spec, w.items[i].opts).Xs))
	}
	for pi, p := range w.passes[1:] {
		for i, a := range p.arts {
			if a == nil || addrs[i] == "" {
				continue
			}
			addr, err := a.Address()
			t.op(err)
			t.check(addr == addrs[i], "%s: pass %d artifact %s differs from pass 0's %s", w.items[i].spec.Name, pi+1, addr, addrs[i])
		}
	}
	if w.name == "paper-figures" {
		w.checkClaims(first)
	}
}

// wellFormed reports whether an artifact has a finite mean in [0,1] at every
// sweep point — every default metric of the five substrates is a fraction.
func wellFormed(a *metrics.Artifact, r resolved) bool {
	mean := series(a, "mean")
	if len(mean) != len(scenario.PlanOf(r.spec, r.opts).Xs) {
		return false
	}
	for _, y := range mean {
		if math.IsNaN(y) || y < 0 || y > 1 {
			return false
		}
	}
	return true
}

// series returns the y values of the named series, nil when absent.
func series(a *metrics.Artifact, name string) []float64 {
	if a == nil {
		return nil
	}
	for _, s := range a.Series {
		if s.Name == name {
			ys := make([]float64, len(s.Points))
			for i, pt := range s.Points {
				ys[i] = pt.Y
			}
			return ys
		}
	}
	return nil
}

// checkClaims asserts the directions the paper's figures show: delivery
// falls as the trade attacker grows, a larger optimistic push blunts the
// attack at a mid-range attacker fraction, and altruism restores the token
// model.
func (w *simWorkload) checkClaims(p simPass) {
	byName := map[string][]float64{}
	for i, r := range w.items {
		byName[r.spec.Name] = series(p.arts[i], "mean")
	}
	t := w.tally
	trade, push, token := byName["gossip-trade"], byName["gossip-trade-push10"], byName["token-altruism"]
	if len(trade) < 2 || len(push) != len(trade) || len(token) < 2 {
		t.check(false, "paper-figures: claim series missing")
		return
	}
	mid := len(trade) / 2
	t.check(trade[0] > trade[len(trade)-1], "gossip-trade: delivery %.4f at no attack is not above %.4f at the largest attacker fraction", trade[0], trade[len(trade)-1])
	t.check(push[mid] >= trade[mid], "gossip-trade-push10: delivery %.4f below gossip-trade's %.4f at the mid attacker fraction", push[mid], trade[mid])
	t.check(token[len(token)-1] > token[0], "token-altruism: completion %.4f at the highest altruism is not above %.4f at none", token[len(token)-1], token[0])
}

func (w *simWorkload) close() {}

// layers returns the sim workload's per-layer metrics: substrate wall time
// and adaptive budgets from the untraced pass, everything else from the
// traced one.
func (w *simWorkload) layers(untraced, traced int, spans []span) map[string]float64 {
	u, t := w.passes[untraced], w.passes[traced]
	m := map[string]float64{}
	for sub, d := range u.bySub {
		m["scenario.wall_s."+sub] = d.Seconds()
	}
	for sub, d := range t.foldBySub {
		m["scenario.fold_window_s."+sub] = d.Seconds()
	}
	for sub, n := range t.repsBySub {
		m["scenario.replicates."+sub] = float64(n)
	}
	m["scenario.point_spec_ms"] = ms(total(spans, "scenario.point_spec"))
	m["scenario.assemble_ms"] = ms(total(spans, "scenario.assemble"))
	m["metrics.encode_ms"] = ms(total(spans, "metrics.encode"))
	gaps := millis(t.gaps)
	m["scenario.emit_gap_ms.p50"] = percentile(gaps, 0.5)
	m["scenario.emit_gap_ms.p95"] = percentile(gaps, 0.95)

	budget := 0
	for i, r := range w.items {
		ep := scenario.PlanOf(r.spec, r.opts)
		if !ep.Adaptive {
			continue
		}
		for _, y := range series(u.arts[i], "reps") {
			m["adaptive.reps"] += y
		}
		budget += len(ep.Xs) * ep.Plan.MaxReps
	}
	if budget > 0 {
		m["adaptive.budget_used"] = m["adaptive.reps"] / float64(budget)
	}

	ks := t.kernel
	for sub, d := range ks.build {
		m["sim.build_s."+sub] = d.Seconds()
	}
	for sub, steps := range ks.steps {
		ds := millis(steps)
		m["sim.step_ms."+sub+".p50"] = percentile(ds, 0.5)
		m["sim.step_ms."+sub+".max"] = percentile(ds, 1)
		m["sim.steps."+sub] = float64(len(steps))
	}
	for sub, d := range ks.snapshot {
		m["sim.snapshot_ms."+sub] = ms(d)
	}
	if ks.ticks > 0 {
		for name, ns := range ks.phaseNs {
			m["swarm.phase_ms."+name] = ns / 1e6 / float64(ks.ticks)
		}
	}
	return m
}
