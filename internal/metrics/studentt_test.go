package metrics

import (
	"math"
	"testing"
)

// TestTCriticalGolden pins the Student-t critical values against
// scipy-derived constants (scipy.stats.t.ppf((1+c)/2, df)) — the classic
// table values to full float precision. A drift here means the continued
// fraction or the inversion broke, and with it every adaptive stopping
// decision.
func TestTCriticalGolden(t *testing.T) {
	cases := []struct {
		confidence float64
		df         int64
		want       float64
	}{
		// 95% two-sided.
		{0.95, 1, 12.706204736},
		{0.95, 2, 4.302652730},
		{0.95, 3, 3.182446305},
		{0.95, 4, 2.776445105},
		{0.95, 5, 2.570581836},
		{0.95, 9, 2.262157163},
		{0.95, 10, 2.228138852},
		{0.95, 30, 2.042272456},
		{0.95, 100, 1.983971519},
		// 99% two-sided.
		{0.99, 1, 63.656741162},
		{0.99, 2, 9.924843201},
		{0.99, 5, 4.032142984},
		{0.99, 10, 3.169272667},
		{0.99, 30, 2.749995654},
		// 90% two-sided.
		{0.90, 1, 6.313751515},
		{0.90, 5, 2.015048373},
		{0.90, 10, 1.812461123},
		{0.90, 30, 1.697260887},
	}
	for _, c := range cases {
		got := TCritical(c.confidence, c.df)
		if rel := math.Abs(got-c.want) / c.want; rel > 1e-8 {
			t.Errorf("TCritical(%g, %d) = %.9f, want %.9f (rel err %.2g)",
				c.confidence, c.df, got, c.want, rel)
		}
	}
	// Large df converges on the normal critical value from above.
	z95 := 1.959963985
	big := TCritical(0.95, 1_000_000)
	if big < z95 || big > z95+1e-4 {
		t.Errorf("TCritical(0.95, 1e6) = %.9f, want just above %.9f", big, z95)
	}
}

// TestTQuantileInvertsCDF: the quantile must invert the CDF across
// confidence levels and df — the property the bisection promises.
func TestTQuantileInvertsCDF(t *testing.T) {
	for _, df := range []float64{1, 2, 3.5, 7, 29, 240, 10_000} {
		for _, p := range []float64{0.005, 0.05, 0.25, 0.5, 0.8, 0.95, 0.9995} {
			q := TQuantile(p, df)
			if back := TCDF(q, df); math.Abs(back-p) > 1e-10 {
				t.Errorf("TCDF(TQuantile(%g, df=%g)) = %g", p, df, back)
			}
		}
		// Symmetry: the distribution is even.
		if q := TQuantile(0.25, df); math.Abs(q+TQuantile(0.75, df)) > 1e-12 {
			t.Errorf("df=%g: quantiles not symmetric: %g", df, q)
		}
	}
}

// TestAccumulatorHalfWidth: the half-width readout against a hand-computed
// interval, the n<2 guard, and the relative variant.
func TestAccumulatorHalfWidth(t *testing.T) {
	var a Accumulator
	if !math.IsInf(a.HalfWidth(0.95), 1) {
		t.Fatal("empty accumulator must have infinite half-width")
	}
	a.Add(2)
	if !math.IsInf(a.HalfWidth(0.95), 1) {
		t.Fatal("one observation must have infinite half-width")
	}
	a.Add(4)
	a.Add(6)
	// Sample {2,4,6}: mean 4, s = 2, n = 3, t_{2,0.975} = 4.302652730.
	want := 4.302652730 * 2 / math.Sqrt(3)
	if got := a.HalfWidth(0.95); math.Abs(got-want) > 1e-8 {
		t.Fatalf("HalfWidth = %.9f, want %.9f", got, want)
	}
	// Tighter confidence means a wider interval.
	if a.HalfWidth(0.99) <= a.HalfWidth(0.95) || a.HalfWidth(0.95) <= a.HalfWidth(0.90) {
		t.Fatal("half-width not monotone in confidence")
	}
}
