package scenario

import (
	"math"
	"testing"

	"lotuseater/internal/sim"
)

// TestReplicateIsFoldWindowsModel: Replicate builds the model FoldWindow
// steps for the same index. Driven to completion, replicates 0–2 give
// exactly the observations FoldWindow emits, on every substrate, under a
// rate limit and under churn.
func TestReplicateIsFoldWindowsModel(t *testing.T) {
	const seed, reps = 7, 3
	for _, name := range []string{
		"x/trade-gossip+ratelimit", "gossip-trade-churn",
		"x/trade-token+ratelimit", "token-churn",
		"x/trade-scrip+ratelimit", "scrip-churn",
		"swarm-churn", "coding-churn",
	} {
		t.Run(name, func(t *testing.T) {
			spec, ok := Get(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			pt, err := spec.PointSpec(spec.Sweep.To)
			if err != nil {
				t.Fatal(err)
			}
			var want []float64
			if err := FoldWindow(pt, seed, 0, reps, 0, func(_ int, y float64) { want = append(want, y) }); err != nil {
				t.Fatal(err)
			}
			for rep := range reps {
				m, err := Replicate(pt, seed, rep)
				if err != nil {
					t.Fatal(err)
				}
				snap, err := sim.Drive(m)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sub(pt.Substrate).metric(pt, snap)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want[rep]) {
					t.Fatalf("replicate %d: Replicate gives %v, FoldWindow emits %v", rep, got, want[rep])
				}
			}
		})
	}
}
