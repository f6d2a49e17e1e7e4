package metrics

import (
	"encoding/json"
	"math"
	"testing"

	"lotuseater/internal/simrng"
)

// TestAccumulatorStateRoundTrip pins State/Accumulator as an exact inverse
// pair, through a JSON boundary, for streams of awkward floats (subnormals,
// huge magnitudes, negatives) — the property the cluster's partial-state
// wire format rests on.
func TestAccumulatorStateRoundTrip(t *testing.T) {
	rng := simrng.New(7)
	for trial := 0; trial < 50; trial++ {
		var a Accumulator
		n := rng.IntN(200)
		for i := 0; i < n; i++ {
			x := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.IntN(40)-20))
			a.Add(x)
		}
		body, err := json.Marshal(a.State())
		if err != nil {
			t.Fatal(err)
		}
		var st AccumulatorState
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		b := st.Accumulator()
		if a != b {
			t.Fatalf("trial %d: round trip changed accumulator:\n%+v\nvs\n%+v", trial, a, b)
		}
	}
}

// TestAccumulatorStateNonFinite pins that the bit encoding survives values
// plain JSON numbers cannot: infinities and NaN-poisoned statistics still
// reconstruct bit for bit.
func TestAccumulatorStateNonFinite(t *testing.T) {
	var a Accumulator
	a.Add(math.Inf(1))
	a.Add(math.Inf(-1))
	a.Add(3.5)
	body, err := json.Marshal(a.State())
	if err != nil {
		t.Fatal(err)
	}
	var st AccumulatorState
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	b := st.Accumulator()
	// NaN != NaN, so compare bit patterns field by field via State.
	if a.State() != b.State() {
		t.Fatalf("non-finite round trip changed accumulator:\n%+v\nvs\n%+v", a, b)
	}
}
