package adaptive

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"lotuseater/internal/metrics"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// noiseModel is the minimal sim.Model: one step, then a snapshot holding a
// pre-drawn observation. Because the value is drawn from the replicate's
// own stream in build, it is a pure function of (seed, replicate index) —
// the same contract every real substrate honors.
type noiseModel struct {
	y    float64
	done bool
}

func (m *noiseModel) Step() error            { m.done = true; return nil }
func (m *noiseModel) Finished() bool         { return m.done }
func (m *noiseModel) Snapshot() (any, error) { return m.y, nil }

// normalBuild yields N(mean, sd) observations.
func normalBuild(mean, sd float64) sim.Build {
	return func(rep int, rng *simrng.Source, ws *sim.Workspace) (sim.Model, error) {
		return &noiseModel{y: mean + sd*rng.NormFloat64()}, nil
	}
}

// collect runs the plan and returns the folded observations in fold order
// plus the result.
func collect(t *testing.T, r sim.Runner, seed uint64, plan Plan, build sim.Build) ([]float64, Result) {
	t.Helper()
	var ys []float64
	res, err := Fold(r, seed, plan, build, func(rep int, snap any) (float64, error) {
		if want := len(ys); rep != want {
			t.Fatalf("fold saw replicate %d, want %d (order broken)", rep, want)
		}
		y := snap.(float64)
		ys = append(ys, y)
		return y, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ys, res
}

// TestFoldStopsEarly: a quiet metric resolves at the opening wave; a noisy
// one under the same target runs to its budget.
func TestFoldStopsEarly(t *testing.T) {
	plan := Plan{MinReps: 3, MaxReps: 64, Batch: 4, CI: CI{HalfWidth: 0.05}}
	_, quiet := collect(t, sim.Runner{}, 1, plan, normalBuild(1, 0.001))
	if !quiet.Met || quiet.Reps != 3 {
		t.Fatalf("quiet metric: reps=%d met=%v, want 3/true", quiet.Reps, quiet.Met)
	}
	if quiet.HalfWidth > 0.05 {
		t.Fatalf("quiet half-width %g above target", quiet.HalfWidth)
	}
	_, noisy := collect(t, sim.Runner{}, 1, plan, normalBuild(1, 10))
	if noisy.Met || noisy.Reps != 64 {
		t.Fatalf("noisy metric: reps=%d met=%v, want 64/false", noisy.Reps, noisy.Met)
	}
	// In between: stops after some but not all waves, on a wave boundary.
	_, mid := collect(t, sim.Runner{}, 1, plan, normalBuild(1, 0.08))
	if !mid.Met || mid.Reps <= 3 || mid.Reps >= 64 || (mid.Reps-3)%4 != 0 {
		t.Fatalf("mid metric: reps=%d met=%v, want an interior wave boundary", mid.Reps, mid.Met)
	}
}

// TestFoldFixedEquivalence: HalfWidth 0 runs exactly MaxReps replicates and
// folds the same observations in the same order as a fixed
// Runner.FoldRange over the same indices — regardless of batch size or worker count. This is the
// equivalence that makes adaptive runs trustworthy.
func TestFoldFixedEquivalence(t *testing.T) {
	const n = 23
	build := normalBuild(0, 1)
	var fixed []float64
	if err := (sim.Runner{}).FoldRange(9, 0, n, build, func(rep int, snap any) error {
		fixed = append(fixed, snap.(float64))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 4, 64} {
		for _, workers := range []int{1, 8} {
			plan := Plan{MaxReps: n, Batch: batch}
			ys, res := collect(t, sim.Runner{Workers: workers}, 9, plan, build)
			if res.Reps != n || res.Met {
				t.Fatalf("batch %d workers %d: reps=%d met=%v, want %d/false", batch, workers, res.Reps, res.Met, n)
			}
			if !reflect.DeepEqual(ys, fixed) {
				t.Fatalf("batch %d workers %d: fold sequence diverged from fixed run", batch, workers)
			}
		}
	}
}

// TestFoldPrefixProperty: a tighter budget folds a strict prefix of a
// looser budget's observations — replicate streams are a pure function of
// (seed, index), never of the stopping decision.
func TestFoldPrefixProperty(t *testing.T) {
	build := normalBuild(2, 1)
	long, _ := collect(t, sim.Runner{}, 5, Plan{MaxReps: 40, Batch: 8}, build)
	short, _ := collect(t, sim.Runner{}, 5, Plan{MaxReps: 12, Batch: 3}, build)
	if !reflect.DeepEqual(short, long[:len(short)]) {
		t.Fatal("smaller budget is not a prefix of the larger one")
	}
}

// TestFoldProgressCumulative: the runner's Progress is translated to
// cumulative counts against the MaxReps cap.
func TestFoldProgressCumulative(t *testing.T) {
	var dones, totals []int
	r := sim.Runner{Progress: func(done, total int) {
		dones = append(dones, done)
		totals = append(totals, total)
	}}
	plan := Plan{MinReps: 2, MaxReps: 10, Batch: 3, CI: CI{HalfWidth: 1e-9}}
	_, res := collect(t, r, 3, plan, normalBuild(0, 5))
	if res.Reps != 10 {
		t.Fatalf("reps = %d, want the full budget", res.Reps)
	}
	if len(dones) != 10 {
		t.Fatalf("progress fired %d times, want 10", len(dones))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress done = %v, want 1..10", dones)
		}
		if totals[i] != 10 {
			t.Fatalf("progress total = %d, want the MaxReps cap 10", totals[i])
		}
	}
}

// TestFoldObserver: the observer hears every wave boundary with a sane
// readout.
func TestFoldObserver(t *testing.T) {
	type wave struct {
		reps int
		met  bool
	}
	var waves []wave
	plan := Plan{MinReps: 2, MaxReps: 8, Batch: 2, CI: CI{HalfWidth: 1e-12}}
	_, err := Fold(sim.Runner{}, 4, plan, normalBuild(0, 1),
		func(rep int, snap any) (float64, error) { return snap.(float64), nil },
		func(reps int, hw float64, met bool) {
			if math.IsNaN(hw) {
				t.Fatalf("observer saw NaN half-width at %d reps", reps)
			}
			waves = append(waves, wave{reps, met})
		})
	if err != nil {
		t.Fatal(err)
	}
	want := []wave{{2, false}, {4, false}, {6, false}, {8, false}}
	if !reflect.DeepEqual(waves, want) {
		t.Fatalf("waves = %v, want %v", waves, want)
	}
}

// TestRelativeTarget: a relative plan stops on half-width/|mean|, and a
// zero mean never satisfies it.
func TestRelativeTarget(t *testing.T) {
	plan := Plan{MinReps: 4, MaxReps: 128, Batch: 8, CI: CI{HalfWidth: 0.05, Relative: true}}
	_, res := collect(t, sim.Runner{}, 2, plan, normalBuild(100, 1))
	if !res.Met || res.Reps >= 128 {
		t.Fatalf("relative target on a strong mean: reps=%d met=%v", res.Reps, res.Met)
	}
	if rel := res.HalfWidth / 100; rel > 0.06 {
		t.Fatalf("achieved relative error %g", rel)
	}
	_, zero := collect(t, sim.Runner{}, 2, Plan{MinReps: 2, MaxReps: 12, Batch: 4, CI: CI{HalfWidth: 0.5, Relative: true}},
		normalBuild(0, 0.0)) // identically zero: mean 0, sd 0
	if zero.Met {
		t.Fatal("zero mean satisfied a relative target")
	}
	if zero.Reps != 12 {
		t.Fatalf("zero-mean relative run stopped at %d reps", zero.Reps)
	}
}

// TestPlanValidate: hostile plans fail loudly; defaults resolve sanely.
func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{CI: CI{HalfWidth: -1}},
		{CI: CI{HalfWidth: math.NaN()}},
		{CI: CI{HalfWidth: math.Inf(1)}},
		{CI: CI{HalfWidth: 0.1, Confidence: 1}},
		{CI: CI{HalfWidth: 0.1, Confidence: 1.5}},
		{CI: CI{HalfWidth: 0.1, Confidence: -0.5}},
		{MinReps: -1},
		{MaxReps: -2},
		{Batch: -3},
		{MinReps: 10, MaxReps: 5},
		{MaxReps: 1, CI: CI{HalfWidth: 0.1}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
	p := Plan{}.WithDefaults()
	if p.MinReps != DefaultMinReps || p.MaxReps != DefaultMaxReps ||
		p.Batch != DefaultBatch || p.CI.Confidence != DefaultConfidence {
		t.Fatalf("defaults resolved to %+v", p)
	}
	if !reflect.DeepEqual(p, p.WithDefaults()) {
		t.Fatal("WithDefaults is not idempotent")
	}
	big := Plan{MinReps: 500}.WithDefaults()
	if big.MaxReps < big.MinReps {
		t.Fatalf("defaults left MinReps %d above MaxReps %d", big.MinReps, big.MaxReps)
	}
	if err := big.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFoldErrors: build and fold errors surface with the global replicate
// index; an invalid plan never runs a model.
func TestFoldErrors(t *testing.T) {
	boom := errors.New("boom")
	_, err := Fold(sim.Runner{}, 1, Plan{MinReps: 2, MaxReps: 6, Batch: 2},
		func(rep int, rng *simrng.Source, ws *sim.Workspace) (sim.Model, error) {
			if rep == 3 {
				return nil, boom
			}
			return &noiseModel{y: 1}, nil
		},
		func(rep int, snap any) (float64, error) { return snap.(float64), nil }, nil)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("build error lost: %v", err)
	}
	ran := false
	_, err = Fold(sim.Runner{}, 1, Plan{MinReps: 9, MaxReps: 3},
		func(rep int, rng *simrng.Source, ws *sim.Workspace) (sim.Model, error) {
			ran = true
			return &noiseModel{}, nil
		},
		func(rep int, snap any) (float64, error) { return 0, nil }, nil)
	if err == nil || ran {
		t.Fatalf("invalid plan ran models (err=%v)", err)
	}
	_, err = Fold(sim.Runner{}, 1, Plan{MinReps: 2, MaxReps: 4}, normalBuild(0, 1),
		func(rep int, snap any) (float64, error) { return 0, boom }, nil)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("fold error lost: %v", err)
	}
}

// TestStoppingRuleCoverage is the statistical self-test behind `make
// check-stats`: a known Bernoulli metric run through the full engine must
// produce Student-t intervals whose empirical coverage sits within 3% of
// the nominal confidence over 1000 trials. Deterministic seeds make the
// check exact and reproducible, not flaky.
func TestStoppingRuleCoverage(t *testing.T) {
	const (
		trials     = 1000
		reps       = 40
		p          = 0.5
		confidence = 0.95
	)
	bernoulli := func(rep int, rng *simrng.Source, ws *sim.Workspace) (sim.Model, error) {
		y := 0.0
		if rng.Bool(p) {
			y = 1
		}
		return &noiseModel{y: y}, nil
	}
	covered := 0
	for trial := 0; trial < trials; trial++ {
		var acc metrics.Accumulator
		res, err := Fold(sim.Runner{}, uint64(1000+trial),
			Plan{MinReps: reps, MaxReps: reps, CI: CI{Confidence: confidence}},
			bernoulli,
			func(rep int, snap any) (float64, error) {
				y := snap.(float64)
				acc.Add(y)
				return y, nil
			}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reps != reps {
			t.Fatalf("trial %d ran %d reps", trial, res.Reps)
		}
		if math.Abs(res.Mean-p) <= res.HalfWidth {
			covered++
		}
		if got := acc.HalfWidth(confidence); got != res.HalfWidth {
			t.Fatalf("result half-width %g disagrees with accumulator %g", res.HalfWidth, got)
		}
	}
	coverage := float64(covered) / trials
	if coverage < confidence-0.03 || coverage > confidence+0.03 {
		t.Fatalf("empirical coverage %.3f outside [%.3f, %.3f]", coverage, confidence-0.03, confidence+0.03)
	}
	t.Logf("coverage %.3f over %d trials (nominal %.2f)", coverage, trials, confidence)
}
