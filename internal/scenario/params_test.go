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
// far end of a two-point sweep from the knob's minimum, and the node count
// and the horizon of every substrate at 1, 2 and 3, set outright and as the
// start of a two-point sweep to 4. Each probe must either fail Validate
// with an error naming the key, or resolve every sweep point and run one
// replicate. Before every integer key was bounded, eight of these probes
// crashed the process: makeslice panics on a negative degree or a huge
// gossip lifetime, and the runtime running out of memory on a huge token,
// piece, symbol or payload count. Before sweep endpoints were bounded, the
// sweeps passed Validate and failed after their first point. Before the
// lifetime was checked against gossip's recent window, the lifetime sweep
// to 1.5 failed at build, and before validation asked the simulators
// themselves, so did gossip's node counts and horizons of 1 to 3 and a
// one-node swarm or economy.
//
// Then it probes combinations that only fail together: each must fail
// Validate naming the offending key, and none may run.
func TestHostileParams(t *testing.T) {
	probe := func(substrate, key string, sets [][2]string) {
		t.Helper()
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
			if !strings.Contains(err.Error(), key) {
				t.Errorf("%s: rejected with an error that does not name %s: %v", name, key, err)
			}
			return
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
	for _, substrate := range Substrates {
		for _, key := range declared[substrate] {
			for _, v := range []float64{-3, 1.5, 1e12} {
				probe(substrate, "params."+key, [][2]string{{"params." + key, fmt.Sprint(v)}})
				probe(substrate, "params."+key, [][2]string{{"sweep.axis", "params." + key}, {"sweep.from", fmt.Sprint(knobOf(key).min)}, {"sweep.to", fmt.Sprint(v)}})
			}
		}
		for _, key := range []string{"nodes", "rounds"} {
			for _, v := range []string{"1", "2", "3"} {
				probe(substrate, key, [][2]string{{key, v}})
				probe(substrate, key, [][2]string{{"sweep.axis", key}, {"sweep.from", v}, {"sweep.to", "4"}})
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
	// Popularity weights have no -set key: 3 weights for the swarm's 128
	// pieces.
	if _, err := Decode([]byte(hostileWeights)); err == nil || !strings.Contains(err.Error(), "population.popularity.weights") {
		t.Errorf("Decode(%s) = %v, want an error naming population.popularity.weights", hostileWeights, err)
	}
}

// hostileWeights is a swarm spec whose popularity weights do not match its
// piece count.
const hostileWeights = `{"name": "weights", "substrate": "swarm", "replicates": 1,
	"adversary": {"kind": "none"},
	"population": {"popularity": {"kind": "weights", "weights": [1, 2, 3]}}}`

// hostileCombinations are specs whose every value is in range but whose
// values together cannot run; each names the key its refusal must name.
// Before they were refused, the first two failed every gossip replicate at
// build, the next four failed partway through their sweep, the scrip ones
// never returned (the economy had no agent left to request service), the
// next nine failed their first replicate (gossip's warmup, seeded copies,
// node count or horizon, a one-node swarm or economy, and Zipf weights on
// coded symbols, which weights cannot bias), and the last three failed at
// the sweep endpoint their spec-level range refuses, after the points
// before it had run.
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
	{"gossip-trade", "rounds", []string{"rounds=10"}},
	{"gossip-trade", "nodes", []string{"nodes=5"}},
	{"gossip-trade", "nodes", []string{"nodes=1"}},
	{"gossip-trade", "params.copies", []string{"params.copies=1000"}},
	{"gossip-trade", "params.warmup", []string{"params.warmup=60"}},
	{"x/none-swarm", "nodes", []string{"nodes=1", "sweep.axis="}},
	{"x/none-scrip", "nodes", []string{"nodes=1", "sweep.axis="}},
	{"coding-zipf", "params.coded", []string{"params.coded=1"}},
	{"gossip-trade", "rounds", []string{"rounds=20"}},
	{"x/none-gossip", "adversary.fraction", []string{"sweep.axis=adversary.fraction", "sweep.from=0", "sweep.to=1.5"}},
	{"x/none-swarm", "population.popularity.exponent", []string{"sweep.axis=population.popularity.exponent", "sweep.from=0", "sweep.to=1"}},
	{"x/none-token", "population.churn.leaveRate", []string{"sweep.axis=population.churn.leaveRate", "sweep.from=0", "sweep.to=2"}},
}

// TestCombinationChecksAdmitValidSweeps: the per-point and endpoint checks
// refuse only what cannot run. A grid sweep over square node counts, a
// scrip fraction sweep that stops short of placing every agent, and sweeps
// whose spec's own value of the swept key could not run (no point runs
// it) validate and run every point.
func TestCombinationChecksAdmitValidSweeps(t *testing.T) {
	for _, probe := range []struct {
		scenario string
		sets     []string
	}{
		{"x/trade-token", []string{"params.graph=2", "nodes=16", "sweep.axis=nodes", "sweep.from=16", "sweep.to=25", "sweep.points=2"}},
		{"x/trade-scrip", []string{"nodes=20", "rounds=200", "sweep.axis=adversary.fraction", "sweep.from=0", "sweep.to=0.95", "sweep.points=2"}},
		{"x/none-swarm", []string{"nodes=1", "sweep.axis=nodes", "sweep.from=10", "sweep.to=20", "sweep.points=2"}},
		{"x/none-gossip", []string{"rounds=10", "sweep.axis=rounds", "sweep.from=25", "sweep.to=40", "sweep.points=2"}},
		{"x/trade-gossip", []string{"adversary.fraction=5", "sweep.axis=adversary.fraction", "sweep.from=0", "sweep.to=0.5", "sweep.points=2"}},
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
