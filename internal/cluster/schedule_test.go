package cluster

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
)

// pick takes the schedule's next unit without blocking.
func pick(sc *schedule) (unit, bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.pickLocked()
}

// fixedSchedule is tinyFixed (three points of twelve replicates) cut into
// windows of five.
func fixedSchedule(t *testing.T) *schedule {
	t.Helper()
	spec := decodeSpec(t, tinyFixed)
	ep := scenario.PlanOf(spec, scenario.RunOptions{})
	return newSchedule(ep, buildPoints(t, spec, ep), 1, scenario.RunOptions{}, 5, 8)
}

// windowsOf lists the windows of one twelve-replicate point cut by five.
func windowsOf(point int) []unit {
	return []unit{{point: point, start: 0, n: 5}, {point: point, start: 5, n: 5}, {point: point, start: 10, n: 2}}
}

// TestFixedScheduleIsPointMajor: a fixed point is one wave cut into
// windows, and each wave goes out whole before the next point opens, so a
// fixed job hands out its windows point by point, in window order.
func TestFixedScheduleIsPointMajor(t *testing.T) {
	sc := fixedSchedule(t)
	var got []unit
	for {
		u, ok := pick(sc)
		if !ok {
			break
		}
		got = append(got, u)
	}
	want := slices.Concat(windowsOf(0), windowsOf(1), windowsOf(2))
	if !slices.Equal(got, want) {
		t.Fatalf("fixed job handed out\n%v\nwant\n%v", got, want)
	}
}

// TestRequeuedWindowGoesFirst: a window whose worker died is the critical
// path of its point, so it goes out again before the next point opens,
// not behind every other point's windows.
func TestRequeuedWindowGoesFirst(t *testing.T) {
	sc := fixedSchedule(t)
	first, _ := pick(sc)
	pick(sc)
	pick(sc)
	sc.requeue(first, errors.New("worker died"))
	retry := first
	retry.attempts = 1
	want := append([]unit{retry}, windowsOf(1)...)
	for i, w := range want {
		if u, ok := pick(sc); !ok || u != w {
			t.Fatalf("pick %d after the requeue: got %v (ok %v), want %v", i, u, ok, w)
		}
	}
}

// TestWindowOutsideOpenWaveFailsJob: a finished window must lie inside the
// unfolded part of its point's open wave; anything else is a broken
// scheduler, and it fails the job instead of folding out of order.
func TestWindowOutsideOpenWaveFailsJob(t *testing.T) {
	for name, tc := range map[string]struct {
		raw     string
		windows []unit
	}{
		"past a fixed point's replicates": {tinyFixed, []unit{{point: 0, start: 10, n: 4}}},
		"past the opening wave":           {tinyAdaptive, []unit{{point: 1, start: 4, n: 4}}},
		"already folded":                  {tinyAdaptive, []unit{{point: 2, start: 0, n: 4}, {point: 2, start: 0, n: 4}}},
	} {
		t.Run(name, func(t *testing.T) {
			spec := decodeSpec(t, tc.raw)
			ep := scenario.PlanOf(spec, scenario.RunOptions{})
			sc := newSchedule(ep, buildPoints(t, spec, ep), 1, scenario.RunOptions{}, ep.Plan.MaxReps, 8)
			for _, u := range tc.windows {
				obs := make([]float64, u.n)
				var acc metrics.Accumulator
				for i := range obs {
					obs[i] = float64(i)
					acc.Add(obs[i])
				}
				sc.complete(u, obs, acc)
			}
			if err := sc.wait(); err == nil || !strings.Contains(err.Error(), "open wave") {
				t.Fatalf("job ended with %v, want a failure naming the open wave", err)
			}
		})
	}
}
