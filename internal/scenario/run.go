package scenario

import (
	"fmt"

	"lotuseater/internal/adaptive"
	"lotuseater/internal/metrics"
	"lotuseater/internal/sim"
)

// RunOptions tunes a scenario run without touching the spec.
type RunOptions struct {
	// Workers bounds the run's in-flight replicates on the shared pool
	// (0 = pool width). Results never depend on it.
	Workers int
	// Replicates overrides the spec's replicate count when positive. Dead
	// under an active precision plan, whose minReps/maxReps govern instead.
	Replicates int
	// Points overrides the sweep's point count when positive.
	Points int
	// Progress, when non-nil, is called after each replicate folds with the
	// number completed so far across all sweep points and the run's total.
	// For fixed runs the total is exact (points x replicates); under an
	// active precision plan it is a monotone non-increasing estimate that
	// starts at points x maxReps and sheds the unused budget of each point
	// that stops early, converging on the true count as the run ends. Calls
	// arrive in order from a single goroutine. Results never depend on it.
	Progress func(done, total int)
	// PointProgress, when non-nil under an active precision plan, is called
	// after every replicate wave with the sweep point index, the replicates
	// folded at that point so far, the current Student-t half-width, and
	// whether the CI target is now met — the "reps-so-far / CI-so-far"
	// readout services surface. Fixed runs never call it. Results never
	// depend on it.
	PointProgress func(point, reps int, halfWidth float64, met bool)
}

// resolveCounts applies Run's defaulting to the spec and options: the
// replicates folded per sweep point (overridden when positive, 3 when
// unset; an inert precision block's maxReps counts as the spec value) and
// the number of sweep points (1 without an axis, at least 2 with one).
func resolveCounts(spec *Spec, opts RunOptions) (replicates, points int) {
	replicates = spec.Replicates
	if spec.Precision != nil && !spec.Precision.active() && spec.Precision.MaxReps > 0 {
		// A plan that can never stop early is a fixed run of its cap — the
		// same fold, byte for byte (pinned by the invariant suite).
		replicates = spec.Precision.MaxReps
	}
	if opts.Replicates > 0 {
		replicates = opts.Replicates
	}
	if replicates <= 0 {
		replicates = 3
	}
	points = 1
	if spec.Sweep.Axis != "" {
		points = spec.Sweep.Points
		if opts.Points > 0 {
			points = opts.Points
		}
		if points < 2 {
			points = 2
		}
	}
	return replicates, points
}

// plan maps the declarative precision block onto the engine's plan type,
// defaults unresolved.
func plan(p *PrecisionSpec) adaptive.Plan {
	return adaptive.Plan{
		MinReps: p.MinReps,
		MaxReps: p.MaxReps,
		Batch:   p.Batch,
		CI: adaptive.CI{
			HalfWidth:  p.HalfWidth,
			Confidence: p.Confidence,
			Relative:   p.Relative,
		},
	}
}

// activePlan compiles the spec's precision block into the resolved
// adaptive plan Run executes; ok is false for fixed-replication runs
// (no block, or one whose halfWidth is zero).
func (s *Spec) activePlan() (adaptive.Plan, bool) {
	if !s.Precision.active() {
		return adaptive.Plan{}, false
	}
	pl := plan(s.Precision).WithDefaults()
	pl.CI.Metric = s.Metric
	if pl.CI.Metric == "" {
		if b := sub(s.Substrate); b != nil {
			pl.CI.Metric = b.defaultMetric
		}
	}
	return pl, true
}

// TotalReplicates returns how many replicates a run of spec will fold in
// total, after the same defaulting Run applies: sweep points times the
// plan's maxReps — exact for fixed runs, and an upper bound under an
// active precision plan (adaptive points may stop earlier;
// RunOptions.Progress totals shrink toward the true count as they do).
func TotalReplicates(spec *Spec, opts RunOptions) int {
	ep := PlanOf(spec, opts)
	return len(ep.Xs) * ep.Plan.MaxReps
}

// Run executes the scenario and returns its artifact: one series per
// summary statistic (mean, stddev, min, max, p50) of the spec's metric
// across the sweep axis, plus per-point replicate counts and achieved CI
// half-widths ("reps", "ci-halfwidth") under an active precision plan.
// Replicates fold into streaming accumulators in replicate order — nothing
// per-replicate is materialized, and the result is bit-identical for any
// worker count.
//
// Seeding uses common random numbers: every sweep point folds replicate i
// with the stream derived from (seed, i) alone, so the same replicate
// index sees the same randomness at every point. Differences between
// points (and between attack and defense arms run from one seed) are
// paired comparisons with the replicate-to-replicate noise cancelled —
// which is also what lets an adaptive run share its replicates
// bit-identically with a fixed run of the same seed.
func Run(spec *Spec, seed uint64, opts RunOptions) (*metrics.Artifact, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ep := PlanOf(spec, opts)
	b := sub(spec.Substrate)
	results := make([]PointResult, 0, len(ep.Xs))
	runner := sim.Runner{Workers: opts.Workers}
	done := 0                                // replicates folded across finished points
	estimate := len(ep.Xs) * ep.Plan.MaxReps // the cap, shed as points stop early
	for pi, x := range ep.Xs {
		pt, err := spec.PointSpec(x)
		if err != nil {
			return nil, err
		}
		st := metrics.NewStream()
		pr := runner
		if opts.Progress != nil {
			base, est := done, estimate
			pr.Progress = func(d, _ int) { opts.Progress(base+d, est) }
		}
		var obs adaptive.Observer
		if ep.Adaptive && opts.PointProgress != nil {
			obs = func(reps int, hw float64, met bool) { opts.PointProgress(pi, reps, hw, met) }
		}
		res, err := adaptive.Fold(pr, seed, ep.Plan, buildFor(pt, b),
			func(rep int, snap any) (float64, error) {
				y, err := b.metric(pt, snap)
				if err != nil {
					return 0, err
				}
				st.Add(y)
				return y, nil
			}, obs)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: point %s=%g: %w", spec.Name, ep.XLabel, x, err)
		}
		done += res.Reps
		if unused := ep.Plan.MaxReps - res.Reps; unused > 0 {
			// The point stopped early: shed its unused budget in one
			// settling call, so totals stay monotone non-increasing and
			// end equal to done.
			estimate -= unused
			if opts.Progress != nil {
				opts.Progress(done, estimate)
			}
		}
		results = append(results, PointResult{X: x, Stream: st, Reps: res.Reps, HalfWidth: res.HalfWidth})
	}
	return Assemble(spec, opts, results)
}

func adversaryLabel(spec *Spec) string {
	kind := spec.Adversary.Kind
	if kind == "" {
		kind = "none"
	}
	if spec.Defense.enabled() {
		return fmt.Sprintf("%s vs ratelimit(%d)", kind, spec.Defense.RateLimit)
	}
	return kind
}
