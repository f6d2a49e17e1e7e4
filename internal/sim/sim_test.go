package sim_test

import (
	"errors"
	"testing"

	"lotuseater/internal/coding"
	"lotuseater/internal/gossip"
	"lotuseater/internal/graph"
	"lotuseater/internal/scrip"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
	"lotuseater/internal/swarm"
	"lotuseater/internal/tokenmodel"
)

// Compile-time proof that all five simulators implement the kernel's Model
// contract.
var (
	_ sim.Model = (*gossip.Engine)(nil)
	_ sim.Model = (*tokenmodel.Sim)(nil)
	_ sim.Model = (*scrip.Sim)(nil)
	_ sim.Model = (*swarm.Sim)(nil)
	_ sim.Model = (*coding.Dissemination)(nil)
)

// buildAll constructs one small instance of every simulator as a sim.Model.
func buildAll(t *testing.T, seed uint64) map[string]sim.Model {
	t.Helper()
	models := map[string]sim.Model{}

	gcfg := gossip.DefaultConfig()
	gcfg.Nodes = 50
	gcfg.Rounds = 20
	gcfg.Warmup = 5
	eng, err := gossip.New(gcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	models["gossip"] = eng

	tm, err := tokenmodel.New(tokenmodel.Config{
		Graph: graph.Complete(30), Tokens: 5, Contacts: 2, Rounds: 15,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	models["tokenmodel"] = tm

	scfg := scrip.DefaultConfig()
	scfg.Rounds = 500
	sc, err := scrip.New(scfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	models["scrip"] = sc

	wcfg := swarm.DefaultConfig()
	wcfg.Leechers = 20
	wcfg.Pieces = 16
	wcfg.Ticks = 120
	sw, err := swarm.New(wcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	models["swarm"] = sw

	ds, err := coding.NewDissemination(coding.DisseminationConfig{
		Graph: graph.Complete(20), Symbols: 4, PayloadSize: 8, Contacts: 2, Rounds: 15, Coded: true,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	models["coding"] = ds
	return models
}

// TestDriveAllModels drives every simulator through the kernel interface
// alone: Step until Finished, then Snapshot, and checks Step-past-horizon
// fails cleanly. The swarm may finish before its horizon (every leecher
// resolved) and tolerates extra no-op Steps, so the past-horizon check is
// skipped when the horizon was not actually reached.
func TestDriveAllModels(t *testing.T) {
	horizons := map[string]int{"gossip": 20, "tokenmodel": 15, "scrip": 500, "swarm": 120, "coding": 15}
	rounds := map[string]func(sim.Model) int{
		"gossip":     func(m sim.Model) int { return m.(*gossip.Engine).Round() },
		"tokenmodel": func(m sim.Model) int { return m.(*tokenmodel.Sim).Round() },
		"scrip":      func(m sim.Model) int { return m.(*scrip.Sim).Round() },
		"swarm":      func(m sim.Model) int { return m.(*swarm.Sim).Tick() },
		"coding":     func(m sim.Model) int { return m.(*coding.Dissemination).Round() },
	}
	for name, m := range buildAll(t, 7) {
		snap, err := sim.Drive(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if snap == nil {
			t.Fatalf("%s: nil snapshot", name)
		}
		if !m.Finished() {
			t.Fatalf("%s: not finished after Drive", name)
		}
		if rounds[name](m) >= horizons[name] {
			if err := m.Step(); err == nil {
				t.Fatalf("%s: Step past the horizon succeeded", name)
			}
		}
	}
}

// TestStepwiseMatchesRun checks that driving a model via the kernel yields
// the same snapshot as the simulator's own Run loop.
func TestStepwiseMatchesRun(t *testing.T) {
	a, err := tokenmodel.New(tokenmodel.Config{
		Graph: graph.Complete(40), Tokens: 8, Contacts: 2, Rounds: 25,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tokenmodel.New(tokenmodel.Config{
		Graph: graph.Complete(40), Tokens: 8, Contacts: 2, Rounds: 25,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	viaKernel, err := sim.Drive(a)
	if err != nil {
		t.Fatal(err)
	}
	viaRun, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := viaKernel.(tokenmodel.Result)
	if got.CompletedFraction != viaRun.CompletedFraction ||
		got.MeanCompletionRound != viaRun.MeanCompletionRound ||
		got.AllSatiatedRound != viaRun.AllSatiatedRound {
		t.Fatalf("kernel drive diverged from Run: %+v vs %+v", got, viaRun)
	}
}

// TestRunnerDeterministicAcrossWorkers runs replicates at different
// concurrency bounds and demands identical snapshots in identical order.
func TestRunnerDeterministicAcrossWorkers(t *testing.T) {
	build := func(rep int, rng *simrng.Source, ws *sim.Workspace) (sim.Model, error) {
		return tokenmodel.New(tokenmodel.Config{
			Graph: graph.Complete(30), Tokens: 6, Contacts: 2, Rounds: 20,
		}, rng.Uint64(), tokenmodel.WithWorkspace(ws))
	}
	collect := func(workers int) []any {
		var snaps []any
		if err := (sim.Runner{Workers: workers}).Fold(99, 12, build, func(_ int, snap any) error {
			snaps = append(snaps, snap)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return snaps
	}
	serial, wide := collect(1), collect(0)
	for i := range serial {
		a := serial[i].(tokenmodel.Result)
		b := wide[i].(tokenmodel.Result)
		if a.CompletedFraction != b.CompletedFraction || a.MeanCompletionRound != b.MeanCompletionRound {
			t.Fatalf("replicate %d differs across worker counts: %+v vs %+v", i, a, b)
		}
	}
}

// TestRunnerPropagatesErrors checks the first build error surfaces.
func TestRunnerPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	err := sim.Runner{}.Fold(1, 4, func(rep int, rng *simrng.Source, ws *sim.Workspace) (sim.Model, error) {
		if rep == 2 {
			return nil, boom
		}
		return tokenmodel.New(tokenmodel.Config{
			Graph: graph.Complete(10), Tokens: 3, Contacts: 1, Rounds: 5,
		}, rng.Uint64())
	}, func(int, any) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

// TestWorkspaceReuse checks buffers are recycled across Resets, zeroed on
// handout, and disjoint within one task.
func TestWorkspaceReuse(t *testing.T) {
	ws := sim.NewWorkspace()
	a := ws.Bools(100)
	b := ws.Bools(100)
	if &a[0] == &b[0] {
		t.Fatal("two live buffers share storage")
	}
	a[0] = true
	first := &a[0]
	ws.Reset()
	c := ws.Bools(50)
	if &c[0] != first {
		t.Fatal("storage not recycled after Reset")
	}
	if c[0] {
		t.Fatal("recycled buffer not zeroed")
	}

	w1 := ws.Words(48)
	w1[47] = 5
	ws.Reset()
	ws.Bools(1) // other kinds keep their own freelists
	w2 := ws.Words(48)
	if &w2[0] != &w1[0] {
		t.Fatal("words not recycled after Reset")
	}
	if w2[47] != 0 {
		t.Fatal("recycled words not zeroed")
	}
}

// TestGoIndexed checks the pool runs every index exactly once and respects
// a concurrency limit of one without deadlocking.
func TestGoIndexed(t *testing.T) {
	hits := make([]int, 500)
	sim.Go(len(hits), 1, func(i int, ws *sim.Workspace) {
		hits[i]++
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

// TestGoNested checks that fan-out from inside pool tasks falls back to
// inline execution instead of deadlocking a fully busy pool.
func TestGoNested(t *testing.T) {
	outer := sim.PoolSize() * 4
	counts := make([][]int, outer)
	sim.Go(outer, 0, func(i int, _ *sim.Workspace) {
		counts[i] = make([]int, 8)
		sim.Go(len(counts[i]), 0, func(j int, _ *sim.Workspace) {
			counts[i][j]++
		})
	})
	for i, inner := range counts {
		for j, c := range inner {
			if c != 1 {
				t.Fatalf("nested task (%d,%d) ran %d times", i, j, c)
			}
		}
	}
}

// TestWorkspaceWordsShapeChange checks that word slices come back zeroed
// and that two live handouts never share storage, also when a request is
// smaller than the recycled slot it lands in or outgrows it.
func TestWorkspaceWordsShapeChange(t *testing.T) {
	ws := sim.NewWorkspace()
	for task, sizes := range [][]int{{50, 10}, {10, 80, 50}, {80, 80, 1}} {
		if task > 0 {
			ws.Reset()
		}
		var live [][]uint64
		for _, n := range sizes {
			w := ws.Words(n)
			if len(w) != n {
				t.Fatalf("task %d: Words(%d) has length %d", task, n, len(w))
			}
			for i, x := range w {
				if x != 0 {
					t.Fatalf("task %d: Words(%d)[%d] = %#x, want zeroed", task, n, i, x)
				}
			}
			live = append(live, w)
		}
		// Stamp each live handout with its own value: storage shared by two
		// of them would show the later stamp in the earlier one.
		for k, w := range live {
			for i := range w {
				w[i] = uint64(k + 1)
			}
		}
		for k, w := range live {
			for i, x := range w {
				if x != uint64(k+1) {
					t.Fatalf("task %d: handout %d word %d reads %d: storage shared with handout %d", task, k, i, x, x-1)
				}
			}
		}
	}
}
