// Student-t confidence machinery for the adaptive precision runner: the
// stopping rule in internal/adaptive halts a sweep point's replicate waves
// once the Student-t confidence interval on the folded metric's mean is
// narrow enough, so the critical values here sit on the hot(ish) path of
// every adaptive run. The quantile is inverted from the regularized
// incomplete beta CDF by bisection — no lookup tables, accurate to ~1e-12,
// and valid for any df — and the values are pinned against scipy-derived
// golden constants in studentt_test.go.
package metrics

import (
	"fmt"
	"math"
)

// HalfWidth returns the two-sided Student-t confidence-interval half-width
// of the mean at the given confidence level (e.g. 0.95):
// t_{n-1,(1+c)/2} * s / sqrt(n). It is +Inf for fewer than two
// observations — the variance is unknown, so no finite interval is
// defensible, and a stopping rule comparing against it can never fire
// prematurely.
func (a *Accumulator) HalfWidth(confidence float64) float64 {
	if a.n < 2 {
		return math.Inf(1)
	}
	return TCritical(confidence, a.n-1) * a.StdDev() / math.Sqrt(float64(a.n))
}

// TCritical returns the two-sided Student-t critical value at the given
// confidence level with df degrees of freedom: the t for which a fraction
// `confidence` of the distribution lies in [-t, t]. It panics on a
// confidence outside (0,1) or df < 1 — programmer errors, not data.
func TCritical(confidence float64, df int64) float64 {
	if confidence <= 0 || confidence >= 1 {
		panic(fmt.Sprintf("metrics: TCritical confidence must be in (0,1), got %g", confidence))
	}
	if df < 1 {
		panic(fmt.Sprintf("metrics: TCritical needs df >= 1, got %d", df))
	}
	return TQuantile(0.5+confidence/2, float64(df))
}

// TQuantile returns the p-quantile of the Student-t distribution with df
// degrees of freedom, inverted from TCDF by bracketed bisection.
func TQuantile(p, df float64) float64 {
	switch {
	case math.IsNaN(p) || p <= 0 || p >= 1:
		panic(fmt.Sprintf("metrics: TQuantile p must be in (0,1), got %g", p))
	case df <= 0:
		panic(fmt.Sprintf("metrics: TQuantile needs df > 0, got %g", df))
	case p == 0.5:
		return 0
	case p < 0.5:
		return -TQuantile(1-p, df)
	}
	// Bracket the quantile, then bisect. ~60 doublings reach any finite t;
	// ~120 halvings reach full float64 precision.
	lo, hi := 0.0, 1.0
	for TCDF(hi, df) < p {
		lo = hi
		hi *= 2
		if math.IsInf(hi, 1) {
			return hi
		}
	}
	for i := 0; i < 200; i++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break // interval exhausted at float64 resolution
		}
		if TCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// TCDF returns P(T <= t) for the Student-t distribution with df degrees of
// freedom, via the regularized incomplete beta function:
// for t > 0, P(T <= t) = 1 - I_{df/(df+t^2)}(df/2, 1/2) / 2.
func TCDF(t, df float64) float64 {
	if t == 0 {
		return 0.5
	}
	tail := 0.5 * RegIncBeta(df/2, 0.5, df/(df+t*t))
	if t > 0 {
		return 1 - tail
	}
	return tail
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b),
// evaluated with the continued fraction of Numerical Recipes §6.4 (modified
// Lentz), using the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) to stay in the
// fraction's fast-converging region.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lab, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf evaluates the incomplete beta continued fraction by the modified
// Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-16
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm, m2 := float64(m), float64(2*m)
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
