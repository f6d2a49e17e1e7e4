package metrics

import "math"

// AccumulatorState is the wire form of an Accumulator: every float is
// carried as its IEEE-754 bit pattern in a uint64, so a state that crosses
// a JSON boundary reconstructs the accumulator bit for bit — including
// non-finite values, which JSON number literals cannot spell. Decimal
// round-tripping would also be exact for finite floats in Go, but the bit
// encoding makes exactness a property of the representation rather than of
// two formatters agreeing, which is what the cluster's check of a worker's
// partial state against its own re-fold rests on.
type AccumulatorState struct {
	N    int64  `json:"n"`
	Sum  uint64 `json:"sumBits"`
	Mean uint64 `json:"meanBits"`
	M2   uint64 `json:"m2Bits"`
	Min  uint64 `json:"minBits"`
	Max  uint64 `json:"maxBits"`
}

// State captures the accumulator's exact value for transport. The inverse
// is AccumulatorState.Accumulator; the round trip is the identity on every
// field (pinned by test).
func (a *Accumulator) State() AccumulatorState {
	return AccumulatorState{
		N:    a.n,
		Sum:  math.Float64bits(a.sum),
		Mean: math.Float64bits(a.mean),
		M2:   math.Float64bits(a.m2),
		Min:  math.Float64bits(a.min),
		Max:  math.Float64bits(a.max),
	}
}

// Accumulator reconstructs the exact accumulator the state was captured
// from.
func (st AccumulatorState) Accumulator() Accumulator {
	return Accumulator{
		n:    st.N,
		sum:  math.Float64frombits(st.Sum),
		mean: math.Float64frombits(st.Mean),
		m2:   math.Float64frombits(st.M2),
		min:  math.Float64frombits(st.Min),
		max:  math.Float64frombits(st.Max),
	}
}
