package main

import "testing"

// single runs one sweepless scenario: the spec named by base, re-pointed
// at a single point by -set overrides.
func single(base string, sets ...string) error {
	args := []string{"scenarios", "run", base, "-set", "sweep.axis=", "-set", "replicates=1"}
	for _, s := range sets {
		args = append(args, "-set", s)
	}
	return run(args)
}

func TestRunSmoke(t *testing.T) {
	err := single("x/trade-gossip", "adversary.fraction=0.2",
		"nodes=80", "rounds=30", "params.warmup=8")
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunDefenses(t *testing.T) {
	err := single("x/trade-gossip", "adversary.kind=ideal", "adversary.fraction=0.1",
		"nodes=80", "rounds=30", "params.warmup=8",
		"params.obedient=1", "defense.kind=ratelimit", "defense.rateLimit=2", "params.report=1")
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRotating(t *testing.T) {
	err := single("x/trade-gossip", "adversary.fraction=0.2", "adversary.rotatePeriod=5",
		"nodes=80", "rounds=30", "params.warmup=8")
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunBadAttack(t *testing.T) {
	if err := single("x/trade-gossip", "adversary.kind=nonsense"); err == nil {
		t.Fatal("bogus attack name accepted")
	}
}

func TestRunBadConfig(t *testing.T) {
	if err := single("x/trade-gossip", "nodes=1"); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"run", "figure1", "-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// The scrip economy with and without the budgeted attack on specialty
// providers; a one-agent economy is rejected.
func TestScripRunSmoke(t *testing.T) {
	if err := single("x/none-scrip", "nodes=60", "rounds=2000"); err != nil {
		t.Fatal(err)
	}
}

func TestScripRunWithAttack(t *testing.T) {
	err := single("x/none-scrip", "nodes=60", "rounds=2000",
		"adversary.kind=trade", "adversary.fraction=0.05", "adversary.targets=0,1,2,3,4",
		"params.budget=5000", "adversary.start=100", "params.special=5", "params.specialReq=0.1")
	if err != nil {
		t.Fatal(err)
	}
}

func TestScripRunBadConfig(t *testing.T) {
	if err := single("x/none-scrip", "nodes=1"); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// Both ranked swarm attacks on a fragile swarm under random selection;
// unknown rank and selection codes are rejected.
func TestSwarmRunSmoke(t *testing.T) {
	if err := single("x/none-swarm", "nodes=30", "params.pieces=32", "rounds=200"); err != nil {
		t.Fatal(err)
	}
}

func TestSwarmRunAttackVariants(t *testing.T) {
	for _, rank := range []string{"uploaders", "rarest"} {
		err := single("x/none-swarm", "nodes=30", "params.pieces=32", "rounds=200",
			"adversary.kind=ideal", "adversary.rank="+rank, "adversary.satiateFraction=0.07", "params.uplink=16",
			"params.selection=1", "params.seedDepart=40", "params.seedAfter=0")
		if err != nil {
			t.Fatalf("rank %s: %v", rank, err)
		}
	}
}

func TestSwarmRunBadSelection(t *testing.T) {
	if err := single("x/none-swarm", "params.selection=7"); err == nil {
		t.Fatal("bogus selection accepted")
	}
}

func TestSwarmRunBadAttack(t *testing.T) {
	if err := single("x/none-swarm", "adversary.kind=ideal", "adversary.rank=7"); err == nil {
		t.Fatal("bogus rank accepted")
	}
}

// The token model on each topology, a grid column cut, and random-graph
// satiation with altruism; a grid needs a square population and an
// unknown topology is rejected.
func TestTokenRunTopologies(t *testing.T) {
	for _, graph := range []string{"0", "1"} {
		if err := single("x/none-token", "nodes=40", "params.tokens=8", "rounds=30", "params.graph="+graph); err != nil {
			t.Fatalf("graph %s: %v", graph, err)
		}
	}
}

func TestTokenRunGridCut(t *testing.T) {
	err := single("x/none-token", "nodes=64", "params.tokens=16", "rounds=40", "params.graph=2",
		"adversary.kind=ideal", "adversary.targets=4,12,20,28,36,44,52,60")
	if err != nil {
		t.Fatal(err)
	}
}

func TestTokenRunSatiateRandom(t *testing.T) {
	err := single("x/none-token", "nodes=40", "params.tokens=8", "rounds=30", "params.graph=1",
		"adversary.kind=ideal", "adversary.targets=0,1,2,3,4,5,6,7,8,9", "params.altruism=0.1")
	if err != nil {
		t.Fatal(err)
	}
}

func TestTokenRunGridNeedsSquare(t *testing.T) {
	if err := single("x/none-token", "nodes=40", "params.graph=2"); err == nil {
		t.Fatal("grid on a non-square population accepted")
	}
}

func TestTokenRunBadGraph(t *testing.T) {
	if err := single("x/none-token", "params.graph=9"); err == nil {
		t.Fatal("bogus graph accepted")
	}
}

func TestListCommand(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCommandText(t *testing.T) {
	if err := run([]string{"run", "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCommandFormats(t *testing.T) {
	for _, format := range []string{"text", "csv", "json"} {
		args := []string{"run", "raretoken", "-quality", "quick", "-seed", "2", "-format", format}
		if err := run(args); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
	}
}

func TestRunCommandUnknownExperiment(t *testing.T) {
	if err := run([]string{"run", "bogus"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunCommandMissingName(t *testing.T) {
	if err := run([]string{"run"}); err == nil {
		t.Fatal("missing experiment name accepted")
	}
}

func TestFiguresSubcommand(t *testing.T) {
	if err := run([]string{"figures", "-exp", "table1"}); err != nil {
		t.Fatal(err)
	}
}

// TestFiguresEveryExperimentRuns drives the table figures and two sweeps
// end to end at quick quality through the figures command.
func TestFiguresEveryExperimentRuns(t *testing.T) {
	for _, id := range []string{"table1", "gridcut", "swarm", "rotating", "raretoken", "inflation"} {
		if err := run([]string{"figures", "-exp", id, "-quality", "quick", "-seed", "2"}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

func TestFiguresCSVOutput(t *testing.T) {
	if err := run([]string{"figures", "-exp", "raretoken", "-quality", "quick", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestFiguresUnknownExperiment(t *testing.T) {
	if err := run([]string{"figures", "-exp", "bogus"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFiguresUnknownQuality(t *testing.T) {
	if err := run([]string{"figures", "-quality", "bogus"}); err == nil {
		t.Fatal("unknown quality accepted")
	}
}

func TestUnknownCommand(t *testing.T) {
	if err := run([]string{"frobnicate"}); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := run([]string{"gossip"}); err == nil {
		t.Fatal("removed per-simulator subcommand accepted")
	}
}

func TestHelp(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Fatal(err)
	}
}
