package main

import (
	"math"
	"testing"
	"time"

	"lotuseater/internal/scenario"
)

// TestTracedDecompositionMatchesRun shows the traced run measures the same
// program: for every fixed-replication scenario of paper-figures, the
// artifact the traced path assembles from PlanOf, PointSpec, FoldWindow
// and Assemble has scenario.Run's content address for the same seed.
func TestTracedDecompositionMatchesRun(t *testing.T) {
	const seed = 11
	items, err := resolveItems(simItems("paper-figures", true))
	if err != nil {
		t.Fatal(err)
	}
	w := &simWorkload{name: "paper-figures", seed: seed, tally: &tally{}}
	p := simPass{foldBySub: map[string]time.Duration{}, repsBySub: map[string]int{}, kernel: newKernelStats()}
	for _, r := range items {
		if scenario.PlanOf(r.spec, r.opts).Adaptive {
			continue
		}
		want, err := scenario.Run(r.spec, seed, r.opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.traced(r, newTracer(), 0, &p)
		if err != nil {
			t.Fatal(err)
		}
		wantAddr, _ := want.Address()
		gotAddr, _ := got.Address()
		if gotAddr != wantAddr {
			t.Errorf("%s: traced artifact %s, scenario.Run %s", r.spec.Name, gotAddr, wantAddr)
		}
	}
}

// TestKernelBuildMatchesEngine pins the bench-owned gossip and swarm builds
// to the engine's own: for every scenario of churn-100k at 3000 nodes and
// two replicates, every point's replicate observations are bit-identical to
// scenario.FoldWindow's, with tracing and swarm phase profiling on.
func TestKernelBuildMatchesEngine(t *testing.T) {
	const seed = 5
	items, err := resolveItems(simItems("churn-100k", true))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range items {
		r.opts.Replicates = 2
		ep := scenario.PlanOf(r.spec, r.opts)
		for _, x := range ep.Xs {
			pt, err := r.spec.PointSpec(x)
			if err != nil {
				t.Fatal(err)
			}
			var want, got []float64
			if err := scenario.FoldWindow(pt, seed, 0, ep.Replicates, 0, func(_ int, y float64) { want = append(want, y) }); err != nil {
				t.Fatal(err)
			}
			ks := newKernelStats()
			if err := foldKernel(pt, seed, ep.Replicates, func(_ int, y float64) { got = append(got, y) }, newTracer(), pt.Name, 0, ks); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s at %g: %d observations, want %d", r.spec.Name, x, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("%s at %g, replicate %d: kernel build observed %v, engine %v", r.spec.Name, x, i, got[i], want[i])
				}
			}
			if len(ks.steps[pt.Substrate]) == 0 {
				t.Errorf("%s: kernel stats recorded no steps", r.spec.Name)
			}
		}
	}
}

// TestKernelBuildRefusesUnmirroredSpecs checks that a spec feature the
// bench-owned build does not reproduce fails instead of being measured.
func TestKernelBuildRefusesUnmirroredSpecs(t *testing.T) {
	for _, name := range []string{"gossip-ratelimit", "token-altruism"} {
		spec, ok := scenario.Get(name)
		if !ok {
			t.Fatalf("no scenario %s", name)
		}
		pt, err := spec.PointSpec(spec.Sweep.To)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := kernelBuild(pt, nil, name, 0, newKernelStats()); err == nil {
			t.Errorf("%s: kernel build accepted it", name)
		}
	}
}
