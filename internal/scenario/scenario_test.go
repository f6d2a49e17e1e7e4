package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"lotuseater/internal/attack"
	"lotuseater/internal/metrics"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
)

// TestSpecJSONRoundTrip: encode/decode must preserve a spec exactly,
// including -set overrides applied beforehand (the acceptance criterion
// that overrides round-trip through the JSON spec).
func TestSpecJSONRoundTrip(t *testing.T) {
	spec, ok := Get("x/trade-gossip")
	if !ok {
		t.Fatal("x/trade-gossip not registered")
	}
	if err := spec.ApplySets([]string{
		"adversary.fraction=0.33",
		"defense.kind=ratelimit",
		"defense.rateLimit=6",
		"params.push=7",
		"sweep.points=4",
		"replicates=9",
		"metric=honest-delivery",
		"precision.halfWidth=0.02",
		"precision.confidence=0.9",
		"precision.minReps=3",
		"precision.maxReps=12",
		"precision.batch=4",
		"precision.relative=true",
	}); err != nil {
		t.Fatal(err)
	}
	data, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(spec)
	b, _ := json.Marshal(back)
	if string(a) != string(b) {
		t.Fatalf("round trip diverged:\n%s\nvs\n%s", a, b)
	}
	if back.Adversary.Fraction != 0.33 || back.Defense.RateLimit != 6 ||
		back.Params["push"] != 7 || back.Sweep.Points != 4 ||
		back.Replicates != 9 || back.Metric != "honest-delivery" {
		t.Fatalf("overrides lost in round trip: %+v", back)
	}
	if p := back.Precision; p == nil || p.HalfWidth != 0.02 || p.Confidence != 0.9 ||
		p.MinReps != 3 || p.MaxReps != 12 || p.Batch != 4 || !p.Relative {
		t.Fatalf("precision overrides lost in round trip: %+v", back.Precision)
	}
}

// TestSpecSetErrors: malformed overrides fail loudly, and so does an
// unknown key.
func TestSpecSetErrors(t *testing.T) {
	spec, _ := Get("x/trade-gossip")
	for _, bad := range []string{
		"nonsense",              // not key=value
		"mystery.knob=1",        // unknown key
		"adversary.fraction=no", // not a number
		"sweep.points=1.5",      // not an integer
	} {
		if err := spec.ApplySets([]string{bad}); err == nil {
			t.Fatalf("override %q accepted", bad)
		}
	}
	if err := spec.ApplySets([]string{"adversary.kind=imaginary"}); err == nil {
		t.Fatal("unknown adversary kind accepted")
	}
	if err := spec.ApplySets([]string{"metric=not-a-metric"}); err == nil {
		t.Fatal("unknown metric accepted")
	}
	for _, bad := range []string{
		"precision.halfWidth=-0.5", // negative target
		"precision.halfWidth=inf",  // non-finite target
		"precision.confidence=1",   // certainty is not a CI
		"precision.relative=maybe", // not a boolean
		"precision.minReps=1.5",    // not an integer
	} {
		spec, _ := Get("x/trade-gossip")
		if err := spec.ApplySets([]string{bad}); err == nil {
			t.Fatalf("precision override %q accepted", bad)
		}
	}
	// MinReps > MaxReps is rejected at validation, wherever the two come
	// from.
	spec, _ = Get("x/trade-gossip")
	if err := spec.ApplySets([]string{"precision.halfWidth=0.1", "precision.minReps=9", "precision.maxReps=3"}); err == nil {
		t.Fatal("inverted precision budget accepted")
	}
}

// TestRegistryCrossProduct: every attack kind must be registered against
// every substrate, defended and undefended — the attack x substrate x
// defense grid of the tentpole.
func TestRegistryCrossProduct(t *testing.T) {
	kinds := []string{"none", "crash", "ideal", "trade"}
	for _, substrate := range Substrates {
		for _, kind := range kinds {
			for _, suffix := range []string{"", "+ratelimit"} {
				name := fmt.Sprintf("x/%s-%s%s", kind, substrate, suffix)
				spec, ok := Get(name)
				if !ok {
					t.Fatalf("cross-product scenario %q missing", name)
				}
				if spec.Substrate != substrate || spec.Adversary.Kind != kind {
					t.Fatalf("%q mislabeled: %+v", name, spec)
				}
			}
		}
	}
}

// TestCrossSubstrateDeterminism is the acceptance table test: every
// attack.Kind runs against gossip, token, swarm (and the other two), and
// each run is bit-identical across worker counts.
func TestCrossSubstrateDeterminism(t *testing.T) {
	kinds := []attack.Kind{attack.None, attack.Crash, attack.Ideal, attack.Trade}
	substratesUnder := map[string][]string{
		"none":  {"gossip", "token", "swarm", "scrip", "coding"},
		"crash": {"gossip", "token", "swarm", "scrip", "coding"},
		"ideal": {"gossip", "token", "swarm", "scrip", "coding"},
		"trade": {"gossip", "token", "swarm", "scrip", "coding"},
	}
	for _, kind := range kinds {
		for _, substrate := range substratesUnder[kind.String()] {
			t.Run(kind.String()+"/"+substrate, func(t *testing.T) {
				spec, ok := Get(fmt.Sprintf("x/%s-%s", kind, substrate))
				if !ok {
					t.Fatalf("scenario missing")
				}
				// Shrink for test runtime; keep the attack meaningful.
				opts := RunOptions{Points: 2, Replicates: 2}
				if substrate == "scrip" {
					spec.Rounds = 1500
				}
				serial, err := Run(spec, 7, RunOptions{Workers: 1, Points: opts.Points, Replicates: opts.Replicates})
				if err != nil {
					t.Fatal(err)
				}
				wide, err := Run(spec, 7, RunOptions{Workers: 8, Points: opts.Points, Replicates: opts.Replicates})
				if err != nil {
					t.Fatal(err)
				}
				a, err := serial.JSON()
				if err != nil {
					t.Fatal(err)
				}
				b, err := wide.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if string(a) != string(b) {
					t.Fatalf("results depend on worker count:\n%s\nvs\n%s", a, b)
				}
			})
		}
	}
}

// TestBigPopulationDeterminism extends the parity table to 40,000-node
// populations: two replicates each of a gossip and a swarm shape at that
// size must give bit-identical results on one worker and on eight.
func TestBigPopulationDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("big-population sweep")
	}
	specs := []*Spec{
		{
			Name:       "par-gossip",
			Substrate:  "gossip",
			Nodes:      40_000,
			Rounds:     12,
			Replicates: 2,
			Adversary:  AdversarySpec{Kind: "ideal", Fraction: 0.02, SatiateFraction: 0.30},
			Params:     map[string]float64{"updates": 1, "lifetime": 8, "copies": 32, "warmup": 2},
		},
		{
			Name:       "par-swarm",
			Substrate:  "swarm",
			Nodes:      40_000,
			Rounds:     20,
			Replicates: 2,
			Adversary:  AdversarySpec{Kind: "ideal", Fraction: 0.01, SatiateFraction: 0.10},
			Params:     map[string]float64{"pieces": 32, "peerset": 8, "uplink": 256},
		},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			serial, err := Run(spec, 7, RunOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			wide, err := Run(spec, 7, RunOptions{Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			a, _ := serial.JSON()
			b, _ := wide.JSON()
			if string(a) != string(b) {
				t.Fatalf("results depend on worker count:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestHostileTargetList: a spec naming out-of-range, duplicate, or negative
// satiation targets must fail validation instead of indexing past a
// replicate's node arrays.
func TestHostileTargetList(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name:      "hostile",
			Substrate: "token",
			Nodes:     50,
			Rounds:    5,
			Adversary: AdversarySpec{Kind: "ideal", Fraction: 0.1},
		}
	}
	for name, targets := range map[string][]int{
		"out-of-range": {3, 1_000_000_000},
		"negative":     {-3, 4},
		"duplicate":    {5, 9, 5},
	} {
		spec := base()
		spec.Adversary.Targets = targets
		if err := spec.Validate(); err == nil {
			t.Fatalf("%s target list accepted: %v", name, targets)
		}
		if _, err := Run(spec, 1, RunOptions{}); err == nil {
			t.Fatalf("%s target list ran: %v", name, targets)
		}
	}

	// A valid list must run, satiating exactly the named nodes, and must
	// round-trip through -set overrides and JSON.
	spec := base()
	if err := spec.ApplySets([]string{"adversary.targets=3,7,11"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, 1, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Adversary.Targets) != 3 || back.Adversary.Targets[2] != 11 {
		t.Fatalf("targets lost in round trip: %+v", back.Adversary)
	}
	// Ids beyond a pinned population are rejected even via overrides.
	if err := spec.ApplySets([]string{"adversary.targets=60"}); err == nil {
		t.Fatal("override with out-of-population target accepted")
	}
}

// TestAttacksBite: sanity on the physics — with heavy attacker presence
// (45%, past the paper's ~42% crash crossover), crash, ideal, and trade all
// measurably hurt the gossip and token substrates relative to the no-attack
// baseline.
func TestAttacksBite(t *testing.T) {
	for _, substrate := range []string{"gossip", "token"} {
		base := baselineMetric(t, substrate, "none")
		for _, kind := range []string{"crash", "ideal", "trade"} {
			hurt := baselineMetric(t, substrate, kind)
			if hurt >= base-0.01 {
				t.Fatalf("%s attack on %s did nothing: %.4f vs baseline %.4f", kind, substrate, hurt, base)
			}
		}
	}
}

func baselineMetric(t *testing.T, substrate, kind string) float64 {
	t.Helper()
	spec, ok := Get(fmt.Sprintf("x/%s-%s", kind, substrate))
	if !ok {
		t.Fatalf("x/%s-%s missing", kind, substrate)
	}
	spec.Sweep = SweepSpec{} // single point
	spec.Adversary.Fraction = 0.45
	a, err := Run(spec, 11, RunOptions{Replicates: 3})
	if err != nil {
		t.Fatal(err)
	}
	return a.Series[0].Points[0].Y
}

// TestDefenseHelps: the rate-limit defense must improve the token
// substrate's organic completion under an ideal attack (the satiation
// payload is throttled to a trickle).
func TestDefenseHelps(t *testing.T) {
	run := func(name string) float64 {
		spec, ok := Get(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		spec.Sweep = SweepSpec{}
		spec.Adversary.Fraction = 0.2
		a, err := Run(spec, 3, RunOptions{Replicates: 3})
		if err != nil {
			t.Fatal(err)
		}
		return a.Series[0].Points[0].Y
	}
	undefended := run("x/ideal-token")
	defended := run("x/ideal-token+ratelimit")
	if defended <= undefended {
		t.Fatalf("rate limit did not help: defended %.4f vs undefended %.4f", defended, undefended)
	}
}

// TestStreamingMatchesBuffered is the 10k-replicate acceptance test: a run
// folded through the streaming path must produce the same mean and variance
// as buffering every replicate, without materializing them.
func TestStreamingMatchesBuffered(t *testing.T) {
	const replicates = 10000
	spec := &Spec{
		Name:       "parity",
		Substrate:  "token",
		Nodes:      24,
		Rounds:     6,
		Adversary:  AdversarySpec{Kind: "trade", Fraction: 0.2, SatiateFraction: 0.5},
		Params:     map[string]float64{"tokens": 6},
		Replicates: replicates,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	b := sub(spec.Substrate)

	// Buffered reference: materialize every observation, then reduce. Run
	// seeds the replicate streams directly from the run seed (common random
	// numbers across sweep points), so the reference does the same.
	ys := make([]float64, 0, replicates)
	err := sim.Runner{}.FoldRange(42, 0, replicates,
		func(rep int, rng *simrng.Source, ws *sim.Workspace) (sim.Model, error) {
			adv, err := spec.Adversary.Strategy()
			if err != nil {
				return nil, err
			}
			return b.build(spec, rng, ws, adv, nil)
		},
		func(rep int, snap any) error {
			y, err := b.metric(spec, snap)
			ys = append(ys, y)
			return err
		})
	if err != nil {
		t.Fatal(err)
	}

	// Streaming path: the scenario engine itself.
	a, err := Run(spec, 42, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]*metrics.Series{}
	for _, s := range a.Series {
		series[s.Name] = s
	}
	if got, want := series["mean"].Points[0].Y, metrics.Mean(ys); got != want {
		t.Fatalf("streaming mean %v != buffered mean %v", got, want)
	}
	wantStd := metrics.StdDev(ys)
	if got := series["stddev"].Points[0].Y; gotAbs(got-wantStd) > 1e-9 {
		t.Fatalf("streaming stddev %v != buffered %v", got, wantStd)
	}
	if got, want := series["min"].Points[0].Y, slices.Min(ys); got != want {
		t.Fatalf("streaming min %v != buffered %v", got, want)
	}
	if got, want := series["max"].Points[0].Y, slices.Max(ys); got != want {
		t.Fatalf("streaming max %v != buffered %v", got, want)
	}
}

func gotAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestOverrideReplicates: an explicit replicate override must win over an
// inert precision block (whose maxReps is just another spelling of the
// fixed count), and stay dead under an active plan.
func TestOverrideReplicates(t *testing.T) {
	spec := &Spec{Name: "o", Substrate: "gossip", Precision: &PrecisionSpec{MaxReps: 24}}
	spec.OverrideReplicates(50)
	if spec.Precision != nil {
		t.Fatal("inert precision block survived a replicates override")
	}
	if got := TotalReplicates(spec, RunOptions{}); got != 50 {
		t.Fatalf("override shadowed: total %d, want 50", got)
	}
	active := &Spec{Name: "o", Substrate: "gossip", Precision: &PrecisionSpec{HalfWidth: 0.01, MaxReps: 24}}
	active.OverrideReplicates(50)
	if active.Precision == nil {
		t.Fatal("active plan displaced by a replicates override")
	}
	if got := TotalReplicates(active, RunOptions{}); got != 24 {
		t.Fatalf("active plan cap %d, want maxReps 24", got)
	}
}

// TestAdaptiveRunStopsEarly: an adaptive sweep spends its budget where the
// variance is — at least one point resolves below the cap — while the
// progress stream reports a monotone non-increasing total that converges
// on the replicates actually run, and the per-point readout stays sane.
func TestAdaptiveRunStopsEarly(t *testing.T) {
	spec := &Spec{
		Name:      "adaptive-stop",
		Substrate: "token",
		Nodes:     48,
		Rounds:    30,
		Adversary: AdversarySpec{Kind: "trade", SatiateFraction: 0.6},
		Sweep:     SweepSpec{Axis: "adversary.fraction", From: 0, To: 0.4, Points: 3},
		Precision: &PrecisionSpec{HalfWidth: 0.02, MinReps: 2, MaxReps: 16, Batch: 2},
		Params:    map[string]float64{"tokens": 8},
	}
	var dones, totals []int
	var waves int
	lastReps := map[int]int{}
	a, err := Run(spec, 5, RunOptions{
		Progress: func(done, total int) {
			if n := len(dones); n > 0 && (done < dones[n-1] || total > totals[n-1]) {
				t.Fatalf("progress regressed: (%d,%d) after (%d,%d)", done, total, dones[n-1], totals[n-1])
			}
			dones = append(dones, done)
			totals = append(totals, total)
		},
		PointProgress: func(point, reps int, halfWidth float64, met bool) {
			waves++
			if reps <= lastReps[point] || halfWidth < 0 {
				t.Fatalf("point %d wave readout regressed: reps %d after %d (hw %g)", point, reps, lastReps[point], halfWidth)
			}
			lastReps[point] = reps
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if totals[0] != 3*16 {
		t.Fatalf("initial total %d, want the points x maxReps cap %d", totals[0], 3*16)
	}
	last := len(dones) - 1
	if dones[last] != totals[last] {
		t.Fatalf("final progress (%d,%d) did not converge", dones[last], totals[last])
	}
	if waves == 0 {
		t.Fatal("PointProgress never fired")
	}

	series := map[string]*metrics.Series{}
	for _, s := range a.Series {
		series[s.Name] = s
	}
	reps, hw := series["reps"], series["ci-halfwidth"]
	if reps == nil || hw == nil {
		t.Fatalf("adaptive artifact missing reps/ci-halfwidth series: %v", a.Series)
	}
	total, early := 0, false
	for i, p := range reps.Points {
		r := int(p.Y)
		if r < 2 || r > 16 {
			t.Fatalf("point %d ran %d replicates, outside [2,16]", i, r)
		}
		if r < 16 {
			early = true
			// A point that stopped early must have met its target.
			if hw.Points[i].Y > 0.02 {
				t.Fatalf("point %d stopped at %d reps with half-width %g above target", i, r, hw.Points[i].Y)
			}
		}
		total += r
	}
	if !early {
		t.Fatal("no sweep point stopped before the 16-replicate cap")
	}
	if dones[last] != total {
		t.Fatalf("progress counted %d replicates, reps series says %d", dones[last], total)
	}
	// The x=0 point has no attacker: with common random numbers its
	// replicates are as quiet as the substrate gets, so the budget must not
	// be spent there.
	if int(reps.Points[0].Y) != 2 {
		t.Fatalf("no-attack baseline point ran %g replicates, want the 2-rep minimum", reps.Points[0].Y)
	}
}

// TestRunUnknowns: bad specs fail with actionable errors.
func TestRunUnknowns(t *testing.T) {
	if _, err := Run(&Spec{Name: "x", Substrate: "mainframe"}, 1, RunOptions{}); err == nil ||
		!strings.Contains(err.Error(), "substrate") {
		t.Fatalf("bad substrate error: %v", err)
	}
	if _, err := Run(&Spec{Name: "x", Substrate: "gossip", Sweep: SweepSpec{Axis: "sideways"}}, 1, RunOptions{}); err == nil ||
		!strings.Contains(err.Error(), "axis") {
		t.Fatalf("bad axis error: %v", err)
	}
}

// TestCannedScenariosRun: every registered scenario must at least run at a
// tiny quality — the registry stays executable as it grows.
func TestCannedScenariosRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			if spec.Substrate == "scrip" {
				spec.Rounds = 1200
			}
			// Big-N entries (gossip-1m, swarm-1m) are data like any other:
			// validate they run, but at a test-sized population. `make
			// bench` exercises them at full width.
			if spec.Nodes > 10_000 {
				spec.Nodes = 2000
			}
			// Adaptive entries: validate the wave path, not the budget —
			// two replicates per point keeps the sweep test-sized.
			if spec.Precision != nil {
				spec.Precision.MinReps, spec.Precision.MaxReps = 2, 2
			}
			if _, err := Run(spec, 1, RunOptions{Points: 2, Replicates: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestValidateErrorDeterministic: Validate reports the *first* problem, so
// with several non-finite values present the winner — and therefore the
// error text — must not depend on map iteration order. Before the
// sorted-keys fix, the finiteness sweep ranged over a map and this test
// flaked across runs; it pins the regression lotus-lint's maprange rule now
// catches statically.
func TestValidateErrorDeterministic(t *testing.T) {
	nan := math.NaN()
	makeSpec := func() *Spec {
		return &Spec{
			Name:      "nondet-probe",
			Substrate: "gossip",
			Params:    map[string]float64{"zeta": nan, "alpha": nan, "mid": nan, "beta": nan},
		}
	}
	const want = "scenario: params.alpha must be finite, got NaN"
	for i := 0; i < 100; i++ {
		err := makeSpec().Validate()
		if err == nil {
			t.Fatal("expected a validation error")
		}
		if err.Error() != want {
			t.Fatalf("iteration %d: error text changed: got %q, want %q", i, err, want)
		}
	}
	// Fixed (non-map) fields win over params, in declaration order.
	s := makeSpec()
	s.Sweep.From = math.Inf(1)
	s.Sweep.To = nan
	if got := s.Validate().Error(); got != "scenario: sweep.from must be finite, got +Inf" {
		t.Fatalf("fixed-field order not deterministic: %q", got)
	}
}

// TestRareAllocationEveryCommonTokenHeld: over 2,000 allocations at E2's
// shape (256 nodes, 50 tokens, one rare token on 16 nodes), where more
// than a quarter of the uniform draws leave some common token with no
// holder, every common token ends up held. An allocation the uniform draw
// already completed is returned exactly as drawn; a repaired one keeps
// every rare holder and differs from the draw only on nodes that gave up a
// common token that another node still holds.
func TestRareAllocationEveryCommonTokenHeld(t *testing.T) {
	const n, items, rare, copies = 256, 50, 1, 16
	s := &Spec{Substrate: "token", Params: map[string]float64{"tokens": items, "rare": rare, "rareCopies": copies}}
	drawn := func(rng *simrng.Source) []int {
		alloc := make([]int, n)
		draw := rng.Child("alloc")
		for v := range alloc {
			alloc[v] = rare + draw.IntN(items-rare)
		}
		for c := 0; c < copies; c++ {
			alloc[c*(n/copies)] = 0
		}
		return alloc
	}
	repaired := 0
	for seed := uint64(0); seed < 2000; seed++ {
		want := drawn(simrng.New(seed))
		got := s.rareAllocation(n, items, simrng.New(seed))
		held := make([]int, items)
		for _, tok := range got {
			held[tok]++
		}
		for tok := rare; tok < items; tok++ {
			if held[tok] == 0 {
				t.Fatalf("seed %d: common token %d has no holder", seed, tok)
			}
		}
		complete := true
		wantHeld := make([]int, items)
		for _, tok := range want {
			wantHeld[tok]++
		}
		for tok := rare; tok < items; tok++ {
			complete = complete && wantHeld[tok] > 0
		}
		for v := range got {
			switch {
			case got[v] == want[v]:
			case complete:
				t.Fatalf("seed %d: complete allocation changed at node %d: %d -> %d", seed, v, want[v], got[v])
			case want[v] < rare || wantHeld[got[v]] > 0 || held[want[v]] == 0:
				t.Fatalf("seed %d: repair moved node %d from token %d to %d", seed, v, want[v], got[v])
			}
		}
		if !complete {
			repaired++
		}
	}
	t.Logf("%d of 2000 uniform draws left a common token unheld and were repaired", repaired)
	if repaired < 400 {
		t.Fatalf("only %d of 2000 draws needed repair; the test no longer covers the repair pass", repaired)
	}
}
