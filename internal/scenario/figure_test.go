package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"lotuseater/internal/metrics"
	"lotuseater/internal/simrng"
)

var quick = RunOptions{Points: 6, Replicates: 1}

// TestFigureCatalogue pins the figure registry: every table and figure of
// the paper plus the extensions, each self-describing.
func TestFigureCatalogue(t *testing.T) {
	want := []string{"altruism", "coding", "figure1", "figure2", "figure3", "gridcut", "hoarding",
		"inflation", "raretoken", "ratelimit", "reporting", "rotating", "satiate-ablation",
		"scrip-money-supply", "scrip-rare-provider", "swarm", "table1"}
	var got []string
	for _, f := range Figures() {
		got = append(got, f.Name)
		if f.Title == "" || f.Description == "" {
			t.Errorf("figure %q lacks a title or description", f.Name)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("figures %v, want %v", got, want)
	}
}

// TestEveryFigureRunsQuick is the figure smoke test: each one runs at quick
// quality into a non-empty artifact named after it.
func TestEveryFigureRunsQuick(t *testing.T) {
	for _, f := range Figures() {
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			a, err := RunFigure(f.Name, 3, quick)
			if err != nil {
				t.Fatal(err)
			}
			if a.Name != f.Name || a.Title != f.Title {
				t.Fatalf("artifact %q %q, want %q %q", a.Name, a.Title, f.Name, f.Title)
			}
			if len(a.Series) == 0 && len(a.Table) == 0 {
				t.Fatal("artifact has neither series nor table")
			}
			for _, s := range a.Series {
				if s.Len() == 0 {
					t.Fatalf("series %q is empty", s.Name)
				}
			}
		})
	}
}

func TestRunFigureUnknownName(t *testing.T) {
	if _, err := RunFigure("no-such-figure", 1, quick); err == nil || !strings.Contains(err.Error(), "figure1") {
		t.Fatalf("unknown figure error should list the known ones: %v", err)
	}
}

// TestFigureAndScenarioNamesDisjoint: `lotus-sim run <name>` resolves a
// name to exactly one figure or scenario.
func TestFigureAndScenarioNamesDisjoint(t *testing.T) {
	for _, f := range Figures() {
		if _, ok := Get(f.Name); ok {
			t.Errorf("%q is both a figure and a scenario", f.Name)
		}
	}
}

// TestSatiatingSpecsCanSatiate: an ideal or trade attacker with no
// attacker nodes and no explicit or ranked targets satiates nobody, so
// every such registry scenario and figure arm needs a positive fraction, a
// fraction axis, explicit targets, or a rank.
func TestSatiatingSpecsCanSatiate(t *testing.T) {
	specs := All()
	for _, f := range Figures() {
		for _, a := range f.Arms {
			specs = append(specs, a.Spec)
		}
	}
	for _, s := range specs {
		adv := s.Adversary
		if adv.Kind != "ideal" && adv.Kind != "trade" {
			continue
		}
		if adv.Fraction > 0 || len(adv.Targets) > 0 || adv.Rank != "" ||
			s.Sweep.Axis == "adversary.fraction" || s.Sweep.Axis == "adversary.targets" {
			continue
		}
		t.Errorf("%s: %s attacker with no nodes and no targets satiates nobody", s.Name, adv.Kind)
	}
}

// TestFigureSegmentsMerge: arms sharing a label form one series in x
// order — E8's uneven cap grid is three evenly spaced pieces.
func TestFigureSegmentsMerge(t *testing.T) {
	a, err := RunFigure("ratelimit", 1, quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Series) != 2 {
		t.Fatalf("%d series, want 2", len(a.Series))
	}
	want := []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24}
	for _, s := range a.Series {
		var xs []float64
		for _, p := range s.Points {
			xs = append(xs, p.X)
		}
		if !slices.Equal(xs, want) {
			t.Fatalf("%s x values %v, want %v", s.Name, xs, want)
		}
	}
}

// TestFigureDeterministic: running a figure twice with the same seed and
// options gives the same bytes.
func TestFigureDeterministic(t *testing.T) {
	opts := RunOptions{Points: 4, Replicates: 3, Workers: 4}
	a, err := RunFigure("altruism", 42, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFigure("altruism", 42, opts)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := a.JSON()
	y, _ := b.JSON()
	if !bytes.Equal(x, y) {
		t.Fatalf("same seed, different bytes:\n%s\n%s", x, y)
	}
}

// TestFigureWorkerParity: a figure is a pure function of (seed, options);
// the worker count never shows in its bytes.
func TestFigureWorkerParity(t *testing.T) {
	for _, name := range []string{"raretoken", "gridcut"} {
		one, err := RunFigure(name, 5, RunOptions{Points: 4, Replicates: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		many, err := RunFigure(name, 5, RunOptions{Points: 4, Replicates: 2, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := one.JSON()
		b, _ := many.JSON()
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs across worker counts:\n%s\n%s", name, a, b)
		}
	}
}

// TestSeriesFigureJSONRoundTrip and TestTableFigureJSONRoundTrip: figure
// artifacts survive JSON encode/decode exactly.
func TestSeriesFigureJSONRoundTrip(t *testing.T) {
	a, err := RunFigure("figure1", 2, RunOptions{Points: 3, Replicates: 1})
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, a)
	if !strings.Contains(a.CSV(), "trade-lotus-eater") {
		t.Fatalf("CSV missing series header:\n%s", a.CSV())
	}
}

func TestTableFigureJSONRoundTrip(t *testing.T) {
	a, err := RunFigure("table1", 1, quick)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, a)
	if csv := a.CSV(); !strings.HasPrefix(csv, "Parameter,Value\n") {
		t.Fatalf("table CSV header wrong:\n%s", csv)
	}
}

func roundTrip(t *testing.T, a *metrics.Artifact) {
	t.Helper()
	data, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := metrics.DecodeArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := json.Marshal(a)
	again, _ := json.Marshal(back)
	if !bytes.Equal(orig, again) {
		t.Fatalf("artifact did not round-trip:\n%s\nvs\n%s", orig, again)
	}
}

func TestRangeEndpoints(t *testing.T) {
	xs := Range(0, 1, 11)
	if len(xs) != 11 {
		t.Fatalf("len = %d", len(xs))
	}
	if xs[0] != 0 || xs[10] != 1 {
		t.Fatalf("endpoints %g, %g", xs[0], xs[10])
	}
	if math.Abs(xs[5]-0.5) > 1e-12 {
		t.Fatalf("midpoint %g", xs[5])
	}
}

func TestRangeDegenerate(t *testing.T) {
	xs := Range(3, 9, 1)
	if len(xs) != 1 || xs[0] != 3 {
		t.Fatalf("Range(3,9,1) = %v", xs)
	}
	for _, x := range Range(2, 2, 3) {
		if x != 2 {
			t.Fatalf("constant range produced %v", Range(2, 2, 3))
		}
	}
}

// TestKnobBounds: each bounded parameter rejects an out-of-range value at
// Validate with an error naming it, on the substrate that reads it; a
// params key (or params axis) the substrate does not read is rejected, the
// retired swarm and scrip attack keys included; and the adversary's window
// and rank reject bad values and substrates that cannot rank. A row's
// space-separated overrides apply together.
func TestKnobBounds(t *testing.T) {
	for _, c := range []struct {
		substrate, set, want string
	}{
		{"gossip", "params.report=-1", "params.report"},
		{"gossip", "params.evict=0", "params.evict"},
		{"gossip", "params.epoch=2.5", "params.epoch"},
		{"token", "params.graph=3", "params.graph"},
		{"token", "params.rare=-2", "params.rare"},
		{"coding", "params.rareCopies=0", "params.rareCopies"},
		{"scrip", "params.budget=-10", "params.budget"},
		{"scrip", "params.special=-3", "params.special"},
		{"scrip", "params.specialReq=1.5", "params.specialReq"},
		{"scrip", "params.altruistProviders=-1", "params.altruistProviders"},
		{"scrip", "params.mint=-0.5", "params.mint"},
		{"swarm", "params.selection=0", "params.selection"},
		{"swarm", "params.uplink=0", "params.uplink"},
		{"swarm", "params.uplink=-5", "params.uplink"},
		{"swarm", "params.uplink=1.5", "params.uplink"},
		{"swarm", "params.uplink=1e30", "params.uplink"},
		// Combinations the simulators would reject (or index past) inside a
		// replicate. A simulator's own refusal names the params keys the
		// spec sets.
		{"token", "params.rare=32", "no common token"},
		{"coding", "params.rare=10 params.rareCopies=2", "needs at least"},
		{"token", "params.graph=2", "square node count"},
		{"scrip", "params.specialReq=0.1", "params.specialReq"},
		{"scrip", "params.altruistProviders=1", "params.altruistProviders"},
		// Keys the substrate does not read, first the retired ones.
		{"scrip", "params.start=1000", "scrip has no params.start"},
		{"swarm", "params.attack=2", "swarm has no params.attack"},
		{"swarm", "params.targets=2", "swarm has no params.targets"},
		{"swarm", "params.astart=10", "swarm has no params.astart"},
		{"swarm", "params.astop=60", "swarm has no params.astop"},
		{"gossip", "params.attack=99", "gossip has no params.attack"},
		{"gossip", "params.nosuchknob=3", "gossip has no params.nosuchknob"},
		{"gossip", "sweep.axis=params.astart sweep.to=5", "gossip has no params.astart"},
		// The campaign window and ranked targets.
		{"gossip", "adversary.kind=ideal adversary.start=-1", "Start and Stop must be non-negative"},
		{"gossip", "adversary.kind=ideal adversary.stop=-1", "Start and Stop must be non-negative"},
		{"scrip", "adversary.kind=trade adversary.start=10 adversary.stop=10", "must exceed Start"},
		{"swarm", "adversary.kind=ideal adversary.rank=fastest", "unknown rank"},
		{"swarm", "adversary.rank=uploaders", "needs an ideal or trade attack"},
		{"swarm", "adversary.kind=crash adversary.rank=rarest", "needs an ideal or trade attack"},
		{"gossip", "adversary.kind=ideal adversary.rank=uploaders", "substrate that ranks"},
		{"token", "adversary.kind=ideal adversary.rank=rarest", "substrate that ranks"},
		{"scrip", "adversary.kind=trade adversary.rank=uploaders", "substrate that ranks"},
		{"coding", "adversary.kind=ideal adversary.rank=rarest", "substrate that ranks"},
	} {
		spec := &Spec{Name: "bounds", Substrate: c.substrate, Nodes: 10}
		sets := strings.Fields(c.set)
		err := spec.ApplySets(sets)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %v: got %v, want an error mentioning %q", c.substrate, sets, err, c.want)
		}
	}
}

// TestBuildersReadDeclaredParams: a builder may read only the params keys
// its substrate declares (param panics on any other), so the unknown-key
// check in Validate neither rejects a key a builder reads nor accepts one
// it ignores. Every registry scenario and figure arm builds one replicate
// at its first sweep point; the million-node scenarios are left out.
func TestBuildersReadDeclaredParams(t *testing.T) {
	specs := All()
	for _, f := range Figures() {
		for _, a := range f.Arms {
			specs = append(specs, a.Spec)
		}
	}
	for _, s := range specs {
		if strings.Contains(s.Name, "-1m") {
			continue
		}
		pt, err := s.PointSpec(s.Sweep.From)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if _, err := buildFor(pt, sub(pt.Substrate))(0, simrng.New(1), nil); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("reading an undeclared key did not panic")
		}
	}()
	(&Spec{Substrate: "swarm"}).param("attack", 0)
}

// TestTargetsAxis: sweeping adversary.targets satiates nodes 0..x-1, and
// values outside the population are rejected.
func TestTargetsAxis(t *testing.T) {
	spec := &Spec{Name: "t", Substrate: "coding", Nodes: 20, Adversary: AdversarySpec{Kind: "ideal"},
		Sweep: SweepSpec{Axis: "adversary.targets", From: 0, To: 4, Points: 3}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	pt, err := spec.PointSpec(2)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pt.Adversary.Targets, []int{0, 1}) {
		t.Fatalf("targets at x=2: %v", pt.Adversary.Targets)
	}
	spec.Sweep.To = 21
	if _, err := spec.PointSpec(21); err == nil {
		t.Fatal("targets beyond the population accepted")
	}
}

// TestWindowedMetricMenu: the outage metrics exist only once params.epoch
// sets their window, so the gossip menu of every other spec is unchanged.
func TestWindowedMetricMenu(t *testing.T) {
	spec, _ := Get("gossip-trade")
	if got := strings.Join(spec.Metrics(), ","); got != "isolated-delivery,evictions,honest-delivery,satiated-delivery,usable-fraction" {
		t.Fatalf("gossip menu without a window: %s", got)
	}
	if err := spec.ApplySets([]string{"metric=nodes-with-outage"}); err == nil {
		t.Fatal("outage metric accepted without params.epoch")
	}
	spec, _ = Get("gossip-trade")
	if err := spec.ApplySets([]string{"params.epoch=10", "metric=nodes-with-outage"}); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(spec.Metrics(), "mean-outage-epochs") {
		t.Fatalf("windowed menu %v", spec.Metrics())
	}
}
