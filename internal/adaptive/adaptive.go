// Package adaptive is the precision-targeted replication engine: instead of
// folding a fixed replicate count per sweep point, it runs batched waves of
// replicates and stops as soon as the Student-t confidence interval on the
// folded metric's mean is as narrow as the plan demands. Cheap, quiet
// points stop at MinReps; noisy points (trade attacks near the satiation
// threshold) keep drawing waves up to MaxReps — compute goes where the
// variance is.
//
// Determinism is the load-bearing property. Waves run on
// sim.Runner.FoldRange, so replicate i always draws the stream
// ChildN("replicate", i) from the run seed — a pure function of (seed,
// replicate index), never of wave boundaries, batch sizes, or worker
// counts. Consequences, all pinned by tests:
//
//   - an adaptive run and a fixed run are bit-identical on the replicates
//     they share, so a plan that can never stop early (HalfWidth 0)
//     reproduces the fixed artifact byte for byte;
//   - two sweep points fed the same seed give replicate i the same stream
//     at both points (common random numbers), so the difference between an
//     attack arm and a defense arm is a paired comparison with most of the
//     replicate-to-replicate noise cancelled;
//   - re-running a stopped point with a larger budget extends it, never
//     reshuffles it.
package adaptive

import (
	"fmt"
	"math"

	"lotuseater/internal/metrics"
	"lotuseater/internal/sim"
)

// Plan defaults, also used by the scenario layer's canonicalization so a
// spelled-out default and an omitted field are the same plan.
const (
	// DefaultConfidence is the CI confidence level when the plan leaves it
	// zero.
	DefaultConfidence = 0.95
	// DefaultBatch is the wave size after the opening MinReps wave.
	DefaultBatch = 8
	// DefaultMaxReps bounds a plan that names no budget.
	DefaultMaxReps = 256
	// DefaultMinReps is the opening wave: two replicates is the least that
	// yields a variance estimate, so no plan can stop on a single sample.
	DefaultMinReps = 2
)

// CI is the stopping target: when the Student-t half-width of the tracked
// metric's mean at the Confidence level drops to HalfWidth or below, the
// point is resolved.
type CI struct {
	// Metric names the tracked observable. Informational — the engine folds
	// whatever the FoldFunc returns — but it keeps plans self-describing in
	// specs, logs, and artifacts.
	Metric string
	// HalfWidth is the target half-width. Zero disables early stopping: the
	// run executes exactly MaxReps replicates, which is how an adaptive
	// plan degenerates to a fixed run.
	HalfWidth float64
	// Confidence is the two-sided CI level (0 = DefaultConfidence).
	Confidence float64
	// Relative, when true, reads HalfWidth as a fraction of the running
	// mean's magnitude ("stop within 1% of the mean") instead of an
	// absolute half-width. A zero mean never satisfies a relative target.
	Relative bool
}

// Plan drives one sweep point's replication budget.
type Plan struct {
	// MinReps is the opening wave size — replicates always run, stopping
	// rule not consulted before (0 = DefaultMinReps; clamped up to 2 so a
	// variance estimate exists, and down to MaxReps).
	MinReps int
	// MaxReps is the hard budget (0 = DefaultMaxReps).
	MaxReps int
	// CI is the stopping target.
	CI CI
	// Batch is the wave size after the opening wave (0 = DefaultBatch).
	// The stopping rule is consulted between waves, never inside one, so
	// larger batches amortize pool fan-out against replicates that may
	// prove unnecessary.
	Batch int
}

// WithDefaults returns the plan with zero fields resolved to the package
// defaults — the canonical form the engine actually executes. Applying it
// twice is a no-op.
func (p Plan) WithDefaults() Plan {
	if p.CI.Confidence == 0 {
		p.CI.Confidence = DefaultConfidence
	}
	if p.Batch == 0 {
		p.Batch = DefaultBatch
	}
	if p.MinReps < DefaultMinReps {
		// 0 means "default", and 1 is indistinguishable from 2 at run time
		// (the engine never stops on a single sample), so both resolve to
		// the two-replicate floor — keeping canonical forms, and with them
		// cache keys, aligned with what actually executes.
		p.MinReps = DefaultMinReps
	}
	if p.MaxReps == 0 {
		p.MaxReps = DefaultMaxReps
		if p.MinReps > p.MaxReps {
			p.MaxReps = p.MinReps
		}
	}
	return p
}

// Adaptive reports whether the plan can stop early at all.
func (p Plan) Adaptive() bool { return p.CI.HalfWidth > 0 }

// Validate reports the first problem with the plan, or nil. Call it on the
// raw plan; WithDefaults never turns a valid plan invalid.
func (p Plan) Validate() error {
	switch {
	case math.IsNaN(p.CI.HalfWidth) || math.IsInf(p.CI.HalfWidth, 0) || p.CI.HalfWidth < 0:
		return fmt.Errorf("adaptive: CI half-width must be finite and non-negative, got %g", p.CI.HalfWidth)
	case math.IsNaN(p.CI.Confidence) || p.CI.Confidence < 0 || p.CI.Confidence >= 1:
		return fmt.Errorf("adaptive: CI confidence must be in [0,1) (0 = %g), got %g", DefaultConfidence, p.CI.Confidence)
	case p.MinReps < 0 || p.MaxReps < 0 || p.Batch < 0:
		return fmt.Errorf("adaptive: MinReps, MaxReps, and Batch must be non-negative")
	case p.MaxReps > 0 && p.MinReps > p.MaxReps:
		return fmt.Errorf("adaptive: MinReps %d exceeds MaxReps %d", p.MinReps, p.MaxReps)
	case p.Adaptive() && p.MaxReps == 1:
		return fmt.Errorf("adaptive: an adaptive plan needs MaxReps >= 2 (one replicate has no variance estimate)")
	}
	return nil
}

// Result summarizes one adaptively-replicated point.
type Result struct {
	// Reps is how many replicates actually ran (indices 0..Reps-1).
	Reps int
	// Met reports whether the CI target was satisfied before MaxReps.
	Met bool
	// HalfWidth is the achieved Student-t half-width at the plan's
	// confidence level (+Inf when fewer than two replicates ran).
	HalfWidth float64
	// Mean and StdDev summarize the tracked observable over the replicates
	// that ran.
	Mean, StdDev float64
}

// FoldFunc folds one replicate's snapshot and returns the observation the
// stopping rule tracks. Like sim.FoldFunc it runs on a single goroutine in
// strict replicate order, so callers may feed side accumulators without
// locking.
type FoldFunc func(rep int, snap any) (float64, error)

// Observer, when non-nil, hears the stopping rule's readout after every
// wave: replicates folded so far, the current half-width, and whether the
// target is now met. Called from the driving goroutine between waves;
// results never depend on it. Long-running services surface these as
// "reps-so-far / CI-so-far" progress.
type Observer func(reps int, halfWidth float64, met bool)

// Fold runs one point under the plan: an opening wave of MinReps
// replicates, then Batch-sized waves, consulting the CI target between
// waves and stopping at the first wave boundary where it is met (or at
// MaxReps). Replicate indices and streams are global and wave-independent
// — see the package comment — and fold observes them in strict index
// order, exactly as a fixed run of the same count would.
//
// The runner's Progress callback, when set, is translated to cumulative
// counts: done is replicates folded so far across waves, total is the
// plan's MaxReps cap (what remains is an upper bound until the rule
// fires).
func Fold(r sim.Runner, seed uint64, plan Plan, build sim.Build, fold FoldFunc, observe Observer) (Result, error) {
	if err := plan.Validate(); err != nil {
		return Result{}, err
	}
	p := plan.WithDefaults()
	var acc metrics.Accumulator
	outer := r.Progress
	res := Result{}
	for res.Reps < p.MaxReps && !res.Met {
		wave := p.Wave(res.Reps)
		wr := r
		if outer != nil {
			base := res.Reps
			wr.Progress = func(done, _ int) { outer(base+done, p.MaxReps) }
		}
		if err := wr.FoldRange(seed, res.Reps, wave, build, func(rep int, snap any) error {
			y, err := fold(rep, snap)
			if err != nil {
				return err
			}
			acc.Add(y)
			return nil
		}); err != nil {
			return Result{}, err
		}
		res.Reps += wave
		res.HalfWidth = acc.HalfWidth(p.CI.Confidence)
		res.Met = p.Met(&acc, res.HalfWidth)
		if observe != nil {
			observe(res.Reps, res.HalfWidth, res.Met)
		}
	}
	res.Mean = acc.Mean()
	res.StdDev = acc.StdDev()
	return res, nil
}

// Wave returns the size of the wave that follows reps folded replicates:
// the opening MinReps wave, then Batch-sized ones, each clipped to what is
// left of the MaxReps budget. Call it on a plan with defaults resolved.
// Wave boundaries are where the stopping rule is consulted, so a remote
// scheduler draws them from here, exactly where Fold does.
func (p Plan) Wave(reps int) int {
	wave := p.Batch
	if reps == 0 {
		wave = p.MinReps
	}
	return min(wave, p.MaxReps-reps)
}

// Met applies the plan's stopping rule to the current statistics: true
// when halfWidth (the Student-t half-width of acc's mean at the plan's
// confidence) satisfies the CI target. Exported so a remote scheduler can
// consult the rule at exactly the wave boundaries Fold would — same
// accumulator contents, same verdict — which is what keeps a distributed
// adaptive run's replicate counts identical to a local one's.
func (p Plan) Met(acc *metrics.Accumulator, halfWidth float64) bool {
	if !p.Adaptive() {
		return false
	}
	goal := p.CI.HalfWidth
	if p.CI.Relative {
		m := math.Abs(acc.Mean())
		if m == 0 {
			// Relative error against a zero mean is 0/0 — never certify it.
			return false
		}
		goal *= m
	}
	return halfWidth <= goal
}
