package metrics

import (
	"math"
	"slices"
	"sort"
	"testing"

	"lotuseater/internal/simrng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestAccumulatorMatchesBuffered: streaming statistics must agree with the
// buffered helpers on the same data — the mean bit for bit (same summation
// order), the rest within float tolerance.
func TestAccumulatorMatchesBuffered(t *testing.T) {
	rng := simrng.New(7)
	xs := make([]float64, 10000)
	var acc Accumulator
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 0.5
		acc.Add(xs[i])
	}
	if got, want := acc.Mean(), Mean(xs); got != want {
		t.Fatalf("Mean: streaming %v != buffered %v", got, want)
	}
	if got, want := acc.StdDev(), StdDev(xs); !almost(got, want, 1e-9) {
		t.Fatalf("StdDev: streaming %v != buffered %v", got, want)
	}
	if got, want := acc.Min(), slices.Min(xs); got != want {
		t.Fatalf("Min: %v != %v", got, want)
	}
	if got, want := acc.Max(), slices.Max(xs); got != want {
		t.Fatalf("Max: %v != %v", got, want)
	}
	if acc.Count() != int64(len(xs)) {
		t.Fatalf("Count %d, want %d", acc.Count(), len(xs))
	}
}

// TestAccumulatorEmptyAndEdge: empty and tiny accumulators match the
// buffered conventions.
func TestAccumulatorEmptyAndEdge(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 {
		t.Fatalf("empty accumulator: mean %v variance %v", a.Mean(), a.Variance())
	}
	if !math.IsInf(a.Min(), 1) || !math.IsInf(a.Max(), -1) {
		t.Fatalf("empty accumulator min/max: %v/%v", a.Min(), a.Max())
	}
	a.Add(2.5)
	if a.Mean() != 2.5 || a.Variance() != 0 || a.Min() != 2.5 || a.Max() != 2.5 {
		t.Fatalf("singleton accumulator wrong: %+v", a)
	}
}

// TestP2QuantileAccuracy: the P² estimate must land near the exact
// quantile for smooth distributions at 10k samples.
func TestP2QuantileAccuracy(t *testing.T) {
	for _, p := range []float64{0.5, 0.9} {
		rng := simrng.New(42)
		est := NewP2Quantile(p)
		xs := make([]float64, 10000)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			est.Add(xs[i])
		}
		exact := Quantile(xs, p)
		if !almost(est.Value(), exact, 0.05) {
			t.Fatalf("p%.0f: P2 %v vs exact %v", p*100, est.Value(), exact)
		}
	}
}

// TestP2QuantileSmallN: below six samples the estimator is exact.
func TestP2QuantileSmallN(t *testing.T) {
	est := NewP2Quantile(0.5)
	if est.Value() != 0 {
		t.Fatalf("empty estimator value %v", est.Value())
	}
	for _, x := range []float64{5, 1, 3} {
		est.Add(x)
	}
	if est.Value() != 3 {
		t.Fatalf("median of {5,1,3} = %v, want 3", est.Value())
	}
}

// TestP2QuantileDegenerateStreams is the property test for the guarded
// interpolation: constant runs, sorted ramps, and adversarial alternations
// must never yield NaN/Inf, and must track the exact quantile.
func TestP2QuantileDegenerateStreams(t *testing.T) {
	finite := func(t *testing.T, q *P2Quantile) {
		t.Helper()
		v := q.Value()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("estimate went non-finite: %v", v)
		}
	}
	t.Run("constant", func(t *testing.T) {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			q := NewP2Quantile(p)
			for i := 0; i < 5000; i++ {
				q.Add(7.25)
				finite(t, q)
			}
			if q.Value() != 7.25 {
				t.Fatalf("p=%g: constant stream estimate %v, want 7.25", p, q.Value())
			}
		}
	})
	t.Run("long-constant-then-jump", func(t *testing.T) {
		q := NewP2Quantile(0.5)
		for i := 0; i < 2000; i++ {
			q.Add(1)
			finite(t, q)
		}
		for i := 0; i < 2000; i++ {
			q.Add(1e9)
			finite(t, q)
		}
	})
	t.Run("alternating-extremes", func(t *testing.T) {
		q := NewP2Quantile(0.9)
		for i := 0; i < 4000; i++ {
			x := -1e12
			if i%2 == 0 {
				x = 1e12
			}
			q.Add(x)
			finite(t, q)
		}
	})
	t.Run("tracks-exact", func(t *testing.T) {
		// Streams where P² should track the exact quantile closely.
		streams := map[string]func(i int) float64{
			"sorted":   func(i int) float64 { return float64(i) },
			"reversed": func(i int) float64 { return float64(9999 - i) },
			"uniform":  func(i int) float64 { return math.Mod(float64(i)*0.61803398875, 1) },
		}
		for name, gen := range streams {
			for _, p := range []float64{0.25, 0.5, 0.9} {
				q := NewP2Quantile(p)
				xs := make([]float64, 10000)
				for i := range xs {
					xs[i] = gen(i)
					q.Add(xs[i])
					finite(t, q)
				}
				sorted := append([]float64(nil), xs...)
				sort.Float64s(sorted)
				exact := Quantile(sorted, p)
				spread := sorted[len(sorted)-1] - sorted[0]
				if diff := math.Abs(q.Value() - exact); diff > 0.05*spread {
					t.Fatalf("%s p=%g: estimate %v vs exact %v (spread %v)", name, p, q.Value(), exact, spread)
				}
			}
		}
	})
	t.Run("exact-small", func(t *testing.T) {
		// Five or fewer observations are exact by construction.
		q := NewP2Quantile(0.5)
		for _, x := range []float64{5, 1, 4} {
			q.Add(x)
		}
		buf := []float64{1, 4, 5}
		if q.Value() != Quantile(buf, 0.5) {
			t.Fatalf("small-stream estimate %v, want exact %v", q.Value(), Quantile(buf, 0.5))
		}
	})
}
