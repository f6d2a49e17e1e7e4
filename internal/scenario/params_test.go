package scenario

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestHostileParams probes every declared params key of every substrate
// with a negative, a fractional and a huge value, set outright and as the
// far end of a two-point sweep from the knob's minimum. Each probe must
// either fail Validate with an error naming the key, or resolve every
// sweep point and run one replicate. Before every integer key was bounded,
// eight of these probes crashed the process: makeslice panics on a
// negative degree or a huge gossip lifetime, and the runtime running out
// of memory on a huge token, piece, symbol or payload count. Before sweep
// endpoints were bounded, the sweeps passed Validate and failed after
// their first point, and before the lifetime was checked against gossip's
// recent window, the lifetime sweep to 1.5 failed at build.
//
// Then it probes combinations that only fail together: each must fail
// Validate naming the offending key, and none may run.
func TestHostileParams(t *testing.T) {
	for _, substrate := range Substrates {
		for _, key := range declared[substrate] {
			for _, v := range []float64{-3, 1.5, 1e12} {
				for _, sets := range [][][2]string{
					{{"params." + key, fmt.Sprint(v)}},
					{{"sweep.axis", "params." + key}, {"sweep.from", fmt.Sprint(knobOf(key).min)}, {"sweep.to", fmt.Sprint(v)}},
				} {
					name := fmt.Sprintf("%s/%v", substrate, sets)
					spec, ok := Get("x/none-" + substrate)
					if !ok {
						t.Fatalf("no scenario x/none-%s", substrate)
					}
					for _, set := range append(sets, [2]string{"replicates", "1"}, [2]string{"sweep.points", "2"}) {
						if err := spec.Set(set[0], set[1]); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
					if err := spec.Validate(); err != nil {
						if !strings.Contains(err.Error(), "params."+key) {
							t.Errorf("%s: rejected with an error that does not name params.%s: %v", name, key, err)
						}
						continue
					}
					for _, x := range PlanOf(spec, RunOptions{}).Xs {
						if _, err := spec.PointSpec(x); err != nil {
							t.Errorf("%s: passes Validate, refused at point %g: %v", name, x, err)
						}
					}
					if _, err := Run(spec, 1, RunOptions{Workers: 1}); err != nil {
						t.Errorf("%s: passes Validate, refused at build: %v", name, err)
					}
				}
			}
		}
	}
	for _, probe := range hostileCombinations {
		spec, ok := Get(probe.scenario)
		if !ok {
			t.Fatalf("no scenario %s", probe.scenario)
		}
		err := spec.ApplySets(append(probe.sets, "replicates=1"))
		if err == nil || !strings.Contains(err.Error(), probe.key) {
			t.Errorf("%s %v: Validate = %v, want an error naming %s", probe.scenario, probe.sets, err, probe.key)
		}
	}
}

// hostileCombinations are specs whose every value is in range but whose
// values together cannot run; each names the key its refusal must name.
// Before they were refused, the first two failed every gossip replicate at
// build, the next four failed partway through their sweep, and the scrip
// ones never returned: the economy had no agent left to request service.
var hostileCombinations = []struct {
	scenario, key string
	sets          []string
}{
	{"x/none-gossip", "params.lifetime", []string{"params.lifetime=1"}},
	{"x/trade-gossip", "params.lifetime", []string{"sweep.axis=params.lifetime", "sweep.from=1", "sweep.to=8"}},
	{"x/trade-token", "params.graph", []string{"params.graph=2", "nodes=16", "sweep.axis=nodes", "sweep.from=16", "sweep.to=100", "sweep.points=3"}},
	{"x/trade-token", "params.graph", []string{"params.graph=2", "nodes=16", "sweep.axis=nodes", "sweep.from=16", "sweep.to=25", "sweep.points=3"}},
	{"x/trade-token", "params.rare", []string{"params.rare=8", "params.rareCopies=4", "sweep.axis=nodes", "sweep.from=64", "sweep.to=16"}},
	{"x/trade-scrip", "params.special", []string{"params.special=100", "sweep.axis=nodes", "sweep.from=120", "sweep.to=60"}},
	{"x/trade-scrip", "adversary.fraction", []string{"sweep.axis=", "adversary.fraction=1"}},
	{"x/crash-scrip", "adversary.fraction", []string{"sweep.axis=", "adversary.fraction=1"}},
	{"x/ideal-scrip", "adversary.fraction", []string{"adversary.fraction=1"}},
	{"x/trade-scrip", "adversary.fraction", []string{"sweep.axis=adversary.fraction", "sweep.from=0", "sweep.to=1"}},
	{"x/trade-scrip", "adversary.fraction", []string{"adversary.fraction=0.99", "sweep.axis=nodes", "sweep.from=10", "sweep.to=200"}},
}

// TestCombinationChecksAdmitValidSweeps: the per-point and endpoint checks
// refuse only what cannot run. A grid sweep over square node counts, and a
// scrip fraction sweep that stops short of placing every agent, validate
// and run every point.
func TestCombinationChecksAdmitValidSweeps(t *testing.T) {
	for _, probe := range []struct {
		scenario string
		sets     []string
	}{
		{"x/trade-token", []string{"params.graph=2", "nodes=16", "sweep.axis=nodes", "sweep.from=16", "sweep.to=25", "sweep.points=2"}},
		{"x/trade-scrip", []string{"nodes=20", "rounds=200", "sweep.axis=adversary.fraction", "sweep.from=0", "sweep.to=0.95", "sweep.points=2"}},
	} {
		spec, ok := Get(probe.scenario)
		if !ok {
			t.Fatalf("no scenario %s", probe.scenario)
		}
		if err := spec.ApplySets(append(probe.sets, "replicates=1")); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(spec, 1, RunOptions{Workers: 1}); err != nil {
			t.Errorf("%s %v: %v", probe.scenario, probe.sets, err)
		}
	}
}

// TestIntegerParamsAxisTruncates: a sweep of an integer params key over a
// grid that falls between integers truncates each point, as the other
// integer axes do, and runs every point.
func TestIntegerParamsAxisTruncates(t *testing.T) {
	spec, ok := Get("x/trade-gossip")
	if !ok {
		t.Fatal("no scenario x/trade-gossip")
	}
	if err := spec.ApplySets([]string{"sweep.axis=params.push", "sweep.from=0", "sweep.to=10",
		"sweep.points=4", "replicates=1"}); err != nil {
		t.Fatal(err)
	}
	a, err := Run(spec, 1, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Series[0].Len(); got != 4 {
		t.Fatalf("ran %d points, want 4", got)
	}
	for _, p := range a.Series[0].Points {
		pt, err := spec.PointSpec(p.X)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pt.Params["push"], math.Trunc(p.X); got != want {
			t.Errorf("push at x=%g is %g, want %g", p.X, got, want)
		}
	}
}

// TestKnobsCoverEveryKey keeps the knob table complete: every declared key
// has a bound, and every key a substrate truncates to an int is an integer
// knob, so a fractional value is refused rather than silently rounded down.
func TestKnobsCoverEveryKey(t *testing.T) {
	fractional := []string{"altruism", "altruists", "cost", "mint", "obedient", "specialReq"}
	for _, substrate := range Substrates {
		for _, key := range declared[substrate] {
			switch k := knobOf(key); {
			case k == nil:
				t.Errorf("%s: params.%s has no knob", substrate, key)
			case k.integer == slices.Contains(fractional, key):
				t.Errorf("%s: params.%s has integer=%v", substrate, key, k.integer)
			}
		}
	}
}
