package cli

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lotuseater/internal/scenario"
)

// Golden end-to-end CLI tests: the exact bytes of `scenarios list`,
// `scenarios show`, a small pinned `scenarios run`, and every figure of the
// paper at quick quality are checked in under testdata/golden. After an intentional output change, regenerate with
//
//	go test ./internal/cli -run Golden -update
//
// and review the diff like any other code change. The run outputs double as
// cross-PR determinism pins: same seed, same bytes, on any worker count.
var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// checkGolden compares got against the named golden file, rewriting it
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/cli -run Golden -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from its golden file.\n--- got ---\n%s\n--- want ---\n%s\n(regenerate with -update if the change is intentional)", name, got, want)
	}
}

// TestGoldenScenariosList: the whole catalogue table, byte for byte — a new
// or renamed scenario shows up here as a reviewable diff.
func TestGoldenScenariosList(t *testing.T) {
	var b strings.Builder
	if err := ScenariosList(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scenarios-list.txt", []byte(b.String()))
}

// TestGoldenScenariosShow: one canned classic's spec JSON plus its metric
// menu.
func TestGoldenScenariosShow(t *testing.T) {
	var b strings.Builder
	if err := ScenariosShow(&b, []string{"gossip-trade"}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scenarios-show-gossip-trade.txt", []byte(b.String()))
}

// TestGoldenScenariosShowChurn pins the canonical JSON of a spec carrying a
// population block — churn rates survive the round-trip in canonical form.
func TestGoldenScenariosShowChurn(t *testing.T) {
	var b strings.Builder
	if err := ScenariosShow(&b, []string{"gossip-trade-churn"}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scenarios-show-gossip-trade-churn.txt", []byte(b.String()))
}

// TestGoldenScenariosRun: a small spec-file run pinned in both text and
// JSON, exercising the same path `scenarios run -spec file.json` takes.
func TestGoldenScenariosRun(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		var b strings.Builder
		err := ScenariosRun(&b, []string{
			"-spec", filepath.Join("testdata", "golden-tiny.json"),
			"-seed", "7", "-format", format,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "scenarios-run-golden-tiny."+format, []byte(b.String()))
	}
}

// TestGoldenScenariosRunTrace: the same tiny spec replaying a churn trace
// file — pins the trace-replay path bit-for-bit, on any worker count.
func TestGoldenScenariosRunTrace(t *testing.T) {
	var b strings.Builder
	err := ScenariosRun(&b, []string{
		"-spec", filepath.Join("testdata", "golden-tiny.json"),
		"-trace", filepath.Join("testdata", "golden-tiny-trace.json"),
		"-seed", "7", "-format", "json",
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scenarios-run-golden-tiny-trace.json", []byte(b.String()))
}

// TestGoldenFigures pins every table and figure of the paper, byte for
// byte: `lotus-sim figures -exp all -quality quick -csv`.
func TestGoldenFigures(t *testing.T) {
	var b strings.Builder
	if err := Figures(&b, []string{"-exp", "all", "-quality", "quick", "-csv"}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figures-quick.csv", []byte(b.String()))
}

// TestGoldenRegistryAddresses runs every registry scenario outside the
// 10⁶-node ones at its own size and seed 1, and pins each artifact's
// content address: a kernel rewrite that is meant to be bit-identical must
// leave every line of registry-addresses.txt unchanged.
func TestGoldenRegistryAddresses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registry scenario")
	}
	var b strings.Builder
	for _, spec := range scenario.All() {
		if strings.Contains(spec.Name, "-1m") {
			continue
		}
		a, err := scenario.Run(spec, 1, scenario.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		addr, err := a.Address()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", spec.Name, addr)
	}
	checkGolden(t, "registry-addresses.txt", []byte(b.String()))
}

// TestGoldenChurn100kAddresses pins, at seed 1, the content addresses of
// the four churn-100k benchmark items at the shapes bench/sims.go runs
// them: gossip-trade-churn and gossip-zipf with gossip-1m's parameters,
// swarm-churn and swarm-zipf at 10⁵ leechers. They are the only pinned
// artifacts built at 10⁵ nodes, and with attack placements of more than 64
// nodes, where SampleIntsInto leaves its scan path.
func TestGoldenChurn100kAddresses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four scenarios at 10⁵ nodes")
	}
	gossipSets := []string{"nodes=100000", "rounds=12", "sweep.points=2", "replicates=1",
		"params.updates=1", "params.lifetime=8", "params.copies=64", "params.warmup=2", "params.push=2"}
	swarmSets := []string{"nodes=100000", "rounds=16", "replicates=1"}
	var b strings.Builder
	for _, it := range []struct {
		name string
		sets []string
	}{
		{"gossip-trade-churn", gossipSets},
		{"gossip-zipf", gossipSets},
		{"swarm-churn", swarmSets},
		{"swarm-zipf", swarmSets},
	} {
		spec, ok := scenario.Get(it.name)
		if !ok {
			t.Fatalf("%s: not in the registry", it.name)
		}
		if err := spec.ApplySets(it.sets); err != nil {
			t.Fatalf("%s: %v", it.name, err)
		}
		a, err := scenario.Run(spec, 1, scenario.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", it.name, err)
		}
		addr, err := a.Address()
		if err != nil {
			t.Fatalf("%s: %v", it.name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", it.name, addr)
	}
	checkGolden(t, "churn-100k-addresses.txt", []byte(b.String()))
}
