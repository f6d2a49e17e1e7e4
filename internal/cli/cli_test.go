package cli

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
)

// TestParseFormat: the three formats parse, anything else errors.
func TestParseFormat(t *testing.T) {
	for _, ok := range []string{"text", "csv", "json"} {
		if _, err := ParseFormat(ok); err != nil {
			t.Fatalf("ParseFormat(%q): %v", ok, err)
		}
	}
	if _, err := ParseFormat("yaml"); err == nil || !strings.Contains(err.Error(), "yaml") {
		t.Fatalf("bad format error: %v", err)
	}
}

// TestRunExperimentUsage: no name and no -spec is a usage error that points
// at both catalogues.
func TestRunExperimentUsage(t *testing.T) {
	var b strings.Builder
	err := RunExperiment(&b, nil)
	if err == nil || !strings.Contains(err.Error(), "scenarios list") {
		t.Fatalf("usage error should mention the scenario catalogue: %v", err)
	}
}

// TestRunExperimentUnknown: an unknown name names both registries in the
// error.
func TestRunExperimentUnknown(t *testing.T) {
	var b strings.Builder
	err := RunExperiment(&b, []string{"no-such-thing"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment or scenario") {
		t.Fatalf("unknown-name error: %v", err)
	}
}

// TestRunExperimentLegacy: a figure of the paper runs by name through
// `run`, at the -quality preset.
func TestRunExperimentLegacy(t *testing.T) {
	var b strings.Builder
	if err := RunExperiment(&b, []string{"table1", "-quality", "quick"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Number of Nodes") {
		t.Fatalf("table1 output missing parameters:\n%s", b.String())
	}
}

// TestRunExperimentSetOnLegacy: -set on a figure (fixed data) is rejected
// with an explanation, not silently ignored.
func TestRunExperimentSetOnLegacy(t *testing.T) {
	var b strings.Builder
	err := RunExperiment(&b, []string{"table1", "-set", "nodes=10"})
	if err == nil || !strings.Contains(err.Error(), "fixed data") {
		t.Fatalf("want fixed-data error, got: %v", err)
	}
}

// TestRunScenarioWithOverrides: `run <scenario> -set ...` flows through the
// scenario engine and honors the overrides.
func TestRunScenarioWithOverrides(t *testing.T) {
	var b strings.Builder
	err := RunExperiment(&b, []string{"x/trade-token", "-format", "json",
		"-set", "sweep.points=2", "-set", "replicates=1", "-set", "rounds=10"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := metrics.DecodeArtifact([]byte(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Series) == 0 || a.Series[0].Len() != 2 {
		t.Fatalf("override sweep.points=2 not honored: %d points", a.Series[0].Len())
	}
}

// TestRunScenarioBadOverride: malformed and unknown -set keys error.
func TestRunScenarioBadOverride(t *testing.T) {
	var b strings.Builder
	if err := RunExperiment(&b, []string{"x/trade-token", "-set", "nonsense"}); err == nil ||
		!strings.Contains(err.Error(), "key=value") {
		t.Fatalf("malformed override error: %v", err)
	}
	if err := RunExperiment(&b, []string{"x/trade-token", "-set", "warp.speed=9"}); err == nil ||
		!strings.Contains(err.Error(), "unknown override key") {
		t.Fatalf("unknown key error: %v", err)
	}
}

// TestScenariosDispatch: the scenarios subcommand routes and rejects
// unknowns.
func TestScenariosDispatch(t *testing.T) {
	var b strings.Builder
	if err := Scenarios(&b, nil); err == nil {
		t.Fatal("missing subcommand accepted")
	}
	if err := Scenarios(&b, []string{"explode"}); err == nil ||
		!strings.Contains(err.Error(), "explode") {
		t.Fatalf("unknown subcommand error: %v", err)
	}
}

// TestScenariosList: every registered scenario shows up.
func TestScenariosList(t *testing.T) {
	var b strings.Builder
	if err := ScenariosList(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, name := range []string{"x/trade-gossip", "x/ideal-swarm+ratelimit", "gossip-ratelimit"} {
		if !strings.Contains(out, name) {
			t.Fatalf("scenarios list missing %q", name)
		}
	}
}

// TestScenariosShow: show prints the JSON spec and the metric menu;
// unknown names error with a pointer to list.
func TestScenariosShow(t *testing.T) {
	var b strings.Builder
	if err := ScenariosShow(&b, []string{"x/trade-gossip"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"substrate": "gossip"`) || !strings.Contains(out, "// metrics:") {
		t.Fatalf("show output incomplete:\n%s", out)
	}
	if err := ScenariosShow(&b, []string{"missing"}); err == nil ||
		!strings.Contains(err.Error(), "scenarios list") {
		t.Fatalf("unknown scenario error: %v", err)
	}
	if err := ScenariosShow(&b, nil); err == nil {
		t.Fatal("show without a name accepted")
	}
}

// TestScenariosRunSpecFile: a spec loaded from disk runs, and name+spec
// together are rejected.
func TestScenariosRunSpecFile(t *testing.T) {
	spec, _ := scenario.Get("x/trade-token")
	spec.Name = "from-file"
	spec.Replicates = 1
	spec.Sweep.Points = 2
	spec.Rounds = 10
	data, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := ScenariosRun(&b, []string{"-spec", path, "-format", "json"}); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("run -spec output is not JSON: %v", err)
	}
	if decoded["name"] != "from-file" {
		t.Fatalf("artifact name %v, want from-file", decoded["name"])
	}
	if err := ScenariosRun(&b, []string{"x/trade-token", "-spec", path}); err == nil ||
		!strings.Contains(err.Error(), "not both") {
		t.Fatalf("name+spec error: %v", err)
	}
	if err := ScenariosRun(&b, nil); err == nil {
		t.Fatal("run without name or spec accepted")
	}
}

// TestScenariosRunUnknown: running an unregistered scenario errors with the
// catalogue pointer.
func TestScenariosRunUnknown(t *testing.T) {
	var b strings.Builder
	err := ScenariosRun(&b, []string{"no-such-scenario"})
	if err == nil || !strings.Contains(err.Error(), "scenarios list") {
		t.Fatalf("unknown scenario error: %v", err)
	}
}

// TestBenchWritesJSON: bench emits the machine-readable perf artifact with
// the 1k-replicate streaming entry included.
func TestBenchWritesJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_scenarios.json")
	adaptivePath := filepath.Join(dir, "BENCH_adaptive.json")
	kernelPath := filepath.Join(dir, "BENCH_kernel.json")
	var b strings.Builder
	// A small population ladder keeps the kernel bench test-sized; the real
	// 10k/100k/1m ladder is the flag default, exercised by `make bench`.
	if err := Bench(&b, []string{"-out", path, "-adaptive-out", adaptivePath, "-kernel-out", kernelPath, "-kernel-sizes", "500,2000", "-kernel-rounds", "2"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Benchmarks []BenchResult `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("bench JSON: %v", err)
	}
	names := map[string]BenchResult{}
	for _, r := range parsed.Benchmarks {
		names[r.Name] = r
	}
	stream, ok := names["bench/streaming-1k"]
	if !ok {
		t.Fatalf("streaming benchmark missing from %v", names)
	}
	if stream.Replicates != 1000 || stream.Runs != 1000 {
		t.Fatalf("streaming benchmark shape wrong: %+v", stream)
	}
	for _, want := range []string{"x/trade-gossip", "x/trade-token", "x/ideal-swarm"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("bench set missing %s", want)
		}
	}

	// The adaptive artifact compares the three *-auto scenarios against
	// their fixed-budget degenerations, with coherent replicate counting.
	adata, err := os.ReadFile(adaptivePath)
	if err != nil {
		t.Fatal(err)
	}
	var adaptive struct {
		Benchmarks []AdaptiveBenchResult `json:"benchmarks"`
	}
	if err := json.Unmarshal(adata, &adaptive); err != nil {
		t.Fatalf("adaptive bench JSON: %v", err)
	}
	if len(adaptive.Benchmarks) != len(adaptiveBenchSet) {
		t.Fatalf("adaptive bench ran %d scenarios, want %d", len(adaptive.Benchmarks), len(adaptiveBenchSet))
	}
	for _, r := range adaptive.Benchmarks {
		if r.FixedReplicates != r.Points*r.MaxReps {
			t.Fatalf("%s: fixed arm ran %d replicates, want %d x %d", r.Name, r.FixedReplicates, r.Points, r.MaxReps)
		}
		if r.AdaptiveReplicates < 2*r.Points || r.AdaptiveReplicates > r.FixedReplicates {
			t.Fatalf("%s: adaptive replicates %d outside [2 x points, fixed]", r.Name, r.AdaptiveReplicates)
		}
		if (r.PointsStoppedEarly > 0) != (r.AdaptiveReplicates < r.FixedReplicates) {
			t.Fatalf("%s: early-stop count %d inconsistent with replicates %d/%d",
				r.Name, r.PointsStoppedEarly, r.AdaptiveReplicates, r.FixedReplicates)
		}
	}

	// The kernel artifact's header names the host and toolchain and the
	// measured round count, and it carries one entry per (substrate,
	// population) with per-round timing and allocation numbers.
	kdata, err := os.ReadFile(kernelPath)
	if err != nil {
		t.Fatal(err)
	}
	var kernel kernelBenchFile
	if err := json.Unmarshal(kdata, &kernel); err != nil {
		t.Fatalf("kernel bench JSON: %v", err)
	}
	if kernel.CPUs < 1 || kernel.GOMAXPROCS < 1 || kernel.GoVersion != runtime.Version() || kernel.KernelRounds != 2 {
		t.Fatalf("kernel bench header malformed: cpus %d, gomaxprocs %d, go %q, rounds %d",
			kernel.CPUs, kernel.GOMAXPROCS, kernel.GoVersion, kernel.KernelRounds)
	}
	seen := map[string]bool{}
	for _, e := range kernel.Entries {
		seen[fmt.Sprintf("%s/%d", e.Substrate, e.Nodes)] = true
		if e.NsPerRound <= 0 || e.Rounds != 2 {
			t.Fatalf("kernel entry malformed: %+v", e)
		}
	}
	for _, want := range []string{"gossip/500", "gossip/2000", "swarm/500", "swarm/2000"} {
		if !seen[want] {
			t.Fatalf("kernel bench missing %s entry (have %v)", want, seen)
		}
	}
}
