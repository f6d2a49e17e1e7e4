package cluster

import (
	"fmt"
	"sync"
	"testing"

	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
	"lotuseater/internal/simrng"
)

// buildPoints mirrors the coordinator's per-point setup.
func buildPoints(t *testing.T, spec *scenario.Spec, ep scenario.ExecPlan) []*pointState {
	t.Helper()
	points := make([]*pointState, len(ep.Xs))
	for i, x := range ep.Xs {
		pt, err := spec.PointSpec(x)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := pt.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		points[i] = &pointState{x: x, spec: canon, st: metrics.NewStream(), buffered: make(map[int][]float64)}
	}
	return points
}

// executeUnit runs one unit the way a worker would: FoldWindow over the
// canonical point spec, collecting ordered observations and the partial
// accumulator. Safe to call off the test goroutine.
func executeUnit(sc *schedule, u unit, seed uint64) ([]float64, metrics.Accumulator, error) {
	var acc metrics.Accumulator
	pt, err := scenario.Decode(sc.points[u.point].spec)
	if err != nil {
		return nil, acc, err
	}
	obs := make([]float64, 0, u.n)
	if err := scenario.FoldWindow(pt, seed, u.start, u.n, 0, func(rep int, y float64) {
		obs = append(obs, y)
		acc.Add(y)
	}); err != nil {
		return nil, acc, err
	}
	return obs, acc, nil
}

// TestPartitionMergeOrderInvariance is the property pin behind the whole
// cluster design: ANY partition of [0, n) into FoldRange windows, executed
// independently and delivered to the schedule in ANY order, assembles into
// byte-identical artifact bytes — and hence the identical content address
// — as the sequential single-process fold. Random partitions, shuffled
// delivery, 12 trials.
func TestPartitionMergeOrderInvariance(t *testing.T) {
	const seed = 13
	spec := decodeSpec(t, tinyFixed)
	want := localArtifact(t, tinyFixed, seed)
	wantAddr := metrics.AddressBytes(want)

	rng := simrng.New(99)
	opts := scenario.RunOptions{}
	for trial := 0; trial < 12; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			ep := scenario.PlanOf(spec, opts)
			points := buildPoints(t, spec, ep)
			sc := newSchedule(ep, points, seed, opts, 1, 8)

			// Random partition: per point, cut [0, replicates) at random.
			var units []unit
			for pi := range points {
				start := 0
				for start < ep.Replicates {
					n := 1 + rng.IntN(ep.Replicates-start)
					units = append(units, unit{point: pi, start: start, n: n})
					start += n
				}
			}
			// Execute all units, then deliver in a shuffled order.
			type executed struct {
				u   unit
				obs []float64
				acc metrics.Accumulator
			}
			results := make([]executed, len(units))
			for i, u := range units {
				obs, acc, err := executeUnit(sc, u, seed)
				if err != nil {
					t.Fatal(err)
				}
				results[i] = executed{u, obs, acc}
			}
			rng.Shuffle(len(results), func(i, j int) { results[i], results[j] = results[j], results[i] })
			for _, r := range results {
				sc.complete(r.u, r.obs, r.acc)
			}
			if err := sc.wait(); err != nil {
				t.Fatal(err)
			}
			a, err := scenario.Assemble(spec, opts, sc.results())
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("partition/order changed artifact bytes:\n%s\nvs\n%s", got, want)
			}
			if metrics.AddressBytes(got) != wantAddr {
				t.Fatalf("address changed")
			}
		})
	}
}

// TestAdaptiveScheduleMatchesFold drives the work-stealing schedule with
// in-process executors — 1, then 3 concurrent — and requires the replicate
// counts, half-widths, and artifact bytes to be identical to adaptive
// scenario.Run: the stopping rule consulted at the same wave boundaries on
// the same in-order streams gives the same verdicts, regardless of which
// "worker" folded which window. Each wave is cut into one-replicate
// windows here, so the windows of a wave also buffer until contiguous.
func TestAdaptiveScheduleMatchesFold(t *testing.T) {
	const seed = 21
	spec := decodeSpec(t, tinyAdaptive)
	want := localArtifact(t, tinyAdaptive, seed)

	for _, executors := range []int{1, 3} {
		t.Run(fmt.Sprintf("executors=%d", executors), func(t *testing.T) {
			opts := scenario.RunOptions{}
			ep := scenario.PlanOf(spec, opts)
			points := buildPoints(t, spec, ep)
			sc := newSchedule(ep, points, seed, opts, 1, 8)

			var wg sync.WaitGroup
			for e := 0; e < executors; e++ {
				url := fmt.Sprintf("exec-%d", e)
				if !sc.addLoop(url) {
					t.Fatalf("loop %s not added", url)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer sc.removeLoop(url)
					for {
						u, ok := sc.next()
						if !ok {
							return
						}
						obs, acc, err := executeUnit(sc, u, seed)
						if err != nil {
							sc.failWith(err)
							return
						}
						sc.complete(u, obs, acc)
					}
				}()
			}
			if err := sc.wait(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			a, err := scenario.Assemble(spec, opts, sc.results())
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("adaptive schedule diverged from adaptive.Fold:\n%s\nvs\n%s", got, want)
			}
		})
	}
}
