package scenario

import (
	"fmt"

	"lotuseater/internal/adaptive"
	"lotuseater/internal/metrics"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// This file is the execution surface shared by Run (one process) and the
// cluster coordinator/workers (internal/cluster): the resolved execution
// shape of a spec (ExecPlan), per-point spec resolution (PointSpec), window
// execution (FoldWindow), and artifact assembly (Assemble). A distributed
// run is Run with the middle cut out — workers execute FoldWindow over
// replicate windows, the coordinator feeds the observations into per-point
// streams in global replicate index order and Assembles — so both paths
// produce byte-identical artifacts by construction.

// ExecPlan is the resolved execution shape of a spec under Run's
// defaulting: the sweep points, the per-point replicate budget, and the
// adaptive precision plan when one is active. Two processes that resolve
// the same spec get the same ExecPlan, which is what lets a coordinator
// name a unit of work as bare (point index, replicate window) integers.
type ExecPlan struct {
	// Replicates is the fixed per-point replicate count. Under an active
	// precision plan it is dead — Plan.MinReps/MaxReps govern instead.
	Replicates int
	// Xs are the sweep x values, in point order ([0] alone without an
	// axis).
	Xs []float64
	// XLabel names the swept knob ("x" without an axis).
	XLabel string
	// Adaptive reports whether a precision plan is active.
	Adaptive bool
	// Plan is the resolved adaptive plan when Adaptive.
	Plan adaptive.Plan
}

// PlanOf resolves the spec and options into the execution shape Run uses —
// the same defaulting, so a remote executor that calls PlanOf on the
// spec's canonical form sees exactly the points and budgets the submitting
// node computed.
func PlanOf(spec *Spec, opts RunOptions) ExecPlan {
	replicates, points := resolveCounts(spec, opts)
	ep := ExecPlan{Replicates: replicates, Xs: []float64{0}, XLabel: "x"}
	if spec.Sweep.Axis != "" {
		ep.Xs = Range(spec.Sweep.From, spec.Sweep.To, points)
		ep.XLabel = spec.Sweep.Axis
	}
	if pl, ok := spec.activePlan(); ok {
		ep.Adaptive = true
		ep.Plan = pl
	}
	return ep
}

// Range returns count evenly spaced values from lo to hi inclusive.
// count < 2 returns []float64{lo}.
func Range(lo, hi float64, count int) []float64 {
	if count < 2 {
		return []float64{lo}
	}
	out := make([]float64, count)
	step := (hi - lo) / float64(count-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[count-1] = hi
	return out
}

// PointSpec resolves the spec at sweep value x: a validated deep copy with
// the swept knob applied (a plain copy when the spec has no sweep axis).
func (s *Spec) PointSpec(x float64) (*Spec, error) {
	pt := s.Clone()
	if s.Sweep.Axis != "" {
		if err := pt.applyAxis(x); err != nil {
			return nil, err
		}
		if err := pt.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: %s at %s=%g: %w", s.Name, s.Sweep.Axis, x, err)
		}
	}
	return pt, nil
}

// buildFor compiles a resolved point spec into the per-replicate model
// constructor Run and FoldWindow hand the kernel.
func buildFor(pt *Spec, b *substrate) sim.Build {
	return func(rep int, rng *simrng.Source, ws *sim.Workspace) (sim.Model, error) {
		adv, err := pt.Adversary.Strategy()
		if err != nil {
			return nil, err
		}
		return b.build(pt, rng, ws, adv, newDefense(pt, ws))
	}
}

// FoldWindow executes replicates [start, start+n) of a resolved point spec
// (see PointSpec) and emits each replicate's metric observation, in strict
// replicate order from a single goroutine. Replicate streams are a pure
// function of (seed, global replicate index) — sim.Runner.FoldRange's
// contract — so any partition of [0, total) into windows, executed on any
// machines in any order, emits exactly the observations a single
// sequential fold would, window by window. workers bounds the window's
// in-flight replicates on the shared pool (0 = pool width); observations
// never depend on it.
func FoldWindow(pt *Spec, seed uint64, start, n, workers int, emit func(rep int, y float64)) error {
	if err := pt.Validate(); err != nil {
		return err
	}
	b := sub(pt.Substrate)
	r := sim.Runner{Workers: workers}
	return r.FoldRange(seed, start, n, buildFor(pt, b), func(rep int, snap any) error {
		y, err := b.metric(pt, snap)
		if err != nil {
			return err
		}
		emit(rep, y)
		return nil
	})
}

// PointResult is one sweep point's folded outcome: the stream fed with the
// point's observations in replicate order, and — under an adaptive plan —
// how many replicates ran and the achieved CI half-width.
type PointResult struct {
	// X is the sweep value.
	X float64
	// Stream holds the point's statistics, folded in replicate order.
	Stream *metrics.Stream
	// Reps is the replicate count an adaptive point settled at (ignored
	// for fixed runs).
	Reps int
	// HalfWidth is the achieved Student-t half-width (adaptive runs only).
	HalfWidth float64
}

// Assemble renders per-point results into the run's artifact — the exact
// assembly Run performs, split out so a distributed run that folded the
// same observations in the same per-point order produces byte-identical
// artifact bytes (and hence the same content address). results must carry
// one entry per ExecPlan sweep point, in point order.
func Assemble(spec *Spec, opts RunOptions, results []PointResult) (*metrics.Artifact, error) {
	ep := PlanOf(spec, opts)
	if len(results) != len(ep.Xs) {
		return nil, fmt.Errorf("scenario: %s: assembling %d point results, want %d", spec.Name, len(results), len(ep.Xs))
	}
	b := sub(spec.Substrate)
	if b == nil {
		return nil, fmt.Errorf("scenario: unknown substrate %q", spec.Substrate)
	}

	mean := &metrics.Series{Name: "mean"}
	std := &metrics.Series{Name: "stddev"}
	minS := &metrics.Series{Name: "min"}
	maxS := &metrics.Series{Name: "max"}
	p50 := &metrics.Series{Name: "p50"}
	var repsS, hwS *metrics.Series
	if ep.Adaptive {
		repsS = &metrics.Series{Name: "reps"}
		hwS = &metrics.Series{Name: "ci-halfwidth"}
	}
	for _, pr := range results {
		mean.Add(pr.X, pr.Stream.Acc.Mean())
		std.Add(pr.X, pr.Stream.Acc.StdDev())
		minS.Add(pr.X, pr.Stream.Acc.Min())
		maxS.Add(pr.X, pr.Stream.Acc.Max())
		p50.Add(pr.X, pr.Stream.P50.Value())
		if ep.Adaptive {
			repsS.Add(pr.X, float64(pr.Reps))
			hwS.Add(pr.X, pr.HalfWidth)
		}
	}

	metricName := spec.Metric
	if metricName == "" {
		metricName = b.defaultMetric
	}
	title := spec.Title
	if title == "" {
		title = spec.Name
	}
	headline := fmt.Sprintf("%s — %s/%s, metric %s (%d replicates/point)", title, spec.Substrate, adversaryLabel(spec), metricName, ep.Replicates)
	series := []*metrics.Series{mean, std, minS, maxS, p50}
	if ep.Adaptive {
		target := fmt.Sprintf("±%g", ep.Plan.CI.HalfWidth)
		if ep.Plan.CI.Relative {
			target = fmt.Sprintf("±%g·|mean|", ep.Plan.CI.HalfWidth)
		}
		headline = fmt.Sprintf("%s — %s/%s, metric %s (adaptive %d-%d replicates/point, CI %s @ %g%%)",
			title, spec.Substrate, adversaryLabel(spec), metricName, ep.Plan.MinReps, ep.Plan.MaxReps, target, ep.Plan.CI.Confidence*100)
		series = append(series, repsS, hwS)
	}
	return &metrics.Artifact{
		Name:   spec.Name,
		Title:  headline,
		XLabel: ep.XLabel,
		Series: series,
	}, nil
}
