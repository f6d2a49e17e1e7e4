package metrics

import (
	"math"
	"sort"
)

// Accumulator folds a stream of observations into summary statistics —
// count, mean, variance, min, max — in O(1) memory. The mean is the plain
// running sum divided by the count, so folding values in a fixed order
// yields bit-identical means to the buffered Mean; the variance uses
// Welford's online algorithm, numerically stable for long streams.
//
// The zero value is ready to use. Accumulators are not safe for concurrent
// use; fold in replicate order, as sim.Runner.FoldRange arranges.
type Accumulator struct {
	n    int64
	sum  float64
	mean float64 // Welford running mean (variance only; Mean() uses sum)
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	a.sum += x
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Count returns the number of observations folded.
func (a *Accumulator) Count() int64 { return a.n }

// Sum returns the running sum.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns sum/count (0 when empty), matching Mean on the same values
// in the same order bit for bit.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Variance returns the sample variance (0 for n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest observation (+Inf when empty, matching Min).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.Inf(1)
	}
	return a.min
}

// Max returns the largest observation (-Inf when empty, matching Max).
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.Inf(-1)
	}
	return a.max
}

// P2Quantile estimates a single quantile online with the P² algorithm
// (Jain & Chlamtac, CACM 1985): five markers track the running quantile in
// O(1) memory, adjusted with piecewise-parabolic interpolation. Exact for
// the first five observations, an estimate afterwards — the price of not
// buffering 10k+ replicate results.
//
// The zero value is not usable; construct with NewP2Quantile.
type P2Quantile struct {
	p       float64
	n       int64
	heights [5]float64
	pos     [5]float64
	want    [5]float64
	inc     [5]float64
	initial []float64
}

// NewP2Quantile returns an estimator for the p-quantile, 0 < p < 1.
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic("metrics: P2 quantile needs 0 < p < 1")
	}
	return &P2Quantile{
		p:       p,
		inc:     [5]float64{0, p / 2, p, (1 + p) / 2, 1},
		initial: make([]float64, 0, 5),
	}
}

// Add folds one observation.
func (q *P2Quantile) Add(x float64) {
	q.n++
	if len(q.initial) < 5 {
		q.initial = append(q.initial, x)
		if len(q.initial) == 5 {
			sort.Float64s(q.initial)
			for i := range q.heights {
				q.heights[i] = q.initial[i]
				q.pos[i] = float64(i + 1)
			}
			q.want = [5]float64{1, 1 + 2*q.p, 1 + 4*q.p, 3 + 2*q.p, 5}
		}
		return
	}

	// Locate the cell containing x and bump the extreme markers.
	var k int
	switch {
	case x < q.heights[0]:
		q.heights[0] = x
		k = 0
	case x >= q.heights[4]:
		q.heights[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < q.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		q.pos[i]++
	}
	for i := range q.want {
		q.want[i] += q.inc[i]
	}

	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := q.want[i] - q.pos[i]
		if (d >= 1 && q.pos[i+1]-q.pos[i] > 1) || (d <= -1 && q.pos[i-1]-q.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			h := q.parabolic(i, s)
			if q.heights[i-1] < h && h < q.heights[i+1] {
				q.heights[i] = h
			} else {
				q.heights[i] = q.linear(i, s)
			}
			q.pos[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic marker adjustment. Marker
// positions are strictly increasing by invariant, but the guard makes the
// estimator robust if a degenerate stream ever drives adjacent positions
// together: a zero denominator yields NaN, which the caller's bounds check
// (heights[i-1] < h < heights[i+1], false for NaN) rejects in favor of
// linear — never a division-poisoned marker.
func (q *P2Quantile) parabolic(i int, s float64) float64 {
	dd := q.pos[i+1] - q.pos[i-1]
	dp := q.pos[i+1] - q.pos[i]
	dm := q.pos[i] - q.pos[i-1]
	if dd == 0 || dp == 0 || dm == 0 {
		return math.NaN()
	}
	return q.heights[i] + s/dd*
		((dm+s)*(q.heights[i+1]-q.heights[i])/dp+
			(dp-s)*(q.heights[i]-q.heights[i-1])/dm)
}

// linear is the fallback marker adjustment; with coincident positions it
// leaves the marker's height unchanged rather than dividing by zero.
func (q *P2Quantile) linear(i int, s float64) float64 {
	j := i + int(s)
	dp := q.pos[j] - q.pos[i]
	if dp == 0 {
		return q.heights[i]
	}
	return q.heights[i] + s*(q.heights[j]-q.heights[i])/dp
}

// Count returns the number of observations folded.
func (q *P2Quantile) Count() int64 { return q.n }

// Value returns the current quantile estimate (exact for n <= 5, 0 when
// empty).
func (q *P2Quantile) Value() float64 {
	if len(q.initial) < 5 {
		if q.n == 0 {
			return 0
		}
		buf := make([]float64, len(q.initial))
		copy(buf, q.initial)
		sort.Float64s(buf)
		return Quantile(buf, q.p)
	}
	return q.heights[2]
}

// Stream bundles the standard scenario statistics — mean/variance/min/max
// plus a median estimate — behind one Add. The zero value is not usable;
// construct with NewStream.
type Stream struct {
	Acc Accumulator
	P50 *P2Quantile
}

// NewStream returns an empty streaming summary.
func NewStream() *Stream {
	return &Stream{P50: NewP2Quantile(0.5)}
}

// Add folds one observation into every statistic.
func (s *Stream) Add(x float64) {
	s.Acc.Add(x)
	s.P50.Add(x)
}
