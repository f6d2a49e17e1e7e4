package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
	"lotuseater/internal/swarm"
)

// KernelBenchResult is one (substrate, population) measurement in
// BENCH_kernel.json: the per-round cost of stepping a single replicate, the
// number the sparse-satiation and allocation-free-round work optimizes.
type KernelBenchResult struct {
	// Substrate names the row: gossip, gossip-churn or swarm.
	Substrate string `json:"substrate"`
	// Nodes is the population size.
	Nodes int `json:"nodes"`
	// Rounds is how many rounds were timed after the warmup.
	Rounds int `json:"rounds"`
	// NsPerRound is wall time per simulated round in nanoseconds.
	NsPerRound float64 `json:"nsPerRound"`
	// AllocsPerRound is heap allocations per round — the satiation-path
	// O(|satiated set|) claim made measurable.
	AllocsPerRound float64 `json:"allocsPerRound"`
	// BytesPerRound is heap bytes allocated per round.
	BytesPerRound float64 `json:"bytesPerRound"`
	// BuildSeconds is the one-time model construction cost.
	BuildSeconds float64 `json:"buildSeconds"`
	// Phases attributes NsPerRound to the substrate's tick phases
	// (nanoseconds per round, keys from the substrate's phase taxonomy).
	// Only substrates with phase instrumentation (swarm) emit it.
	Phases map[string]float64 `json:"phasesNsPerRound,omitempty"`
}

// kernelBenchFile is the schema of BENCH_kernel.json. The header records
// the host and toolchain the entries were measured on — logical CPUs,
// GOMAXPROCS, Go version — and the rounds timed for each entry.
type kernelBenchFile struct {
	GeneratedAt  string              `json:"generatedAt"`
	Seed         uint64              `json:"seed"`
	CPUs         int                 `json:"cpus"`
	GOMAXPROCS   int                 `json:"gomaxprocs"`
	GoVersion    string              `json:"goVersion"`
	KernelRounds int                 `json:"kernelRounds"`
	Entries      []KernelBenchResult `json:"entries"`
}

// kernelBenchSizes is the population ladder the kernel bench climbs; the
// top rung is the ROADMAP's million-user scale.
var kernelBenchSizes = []int{10_000, 100_000, 1_000_000}

// Each kernel row times kernelRounds rounds, right after a short warmup.
// The swarm is still filling then, so its ns/round grows with the round
// count: the rows of bench_baseline.json are 3-round rows, and another
// count would measure something else. The gate fails a row more than
// kernelRegress (25 %) slower than its baseline row.
const (
	kernelRounds  = 3
	kernelRegress = 0.25
)

// kernelBench measures ns/round and allocs/round for one replicate of the
// gossip (static and churning) and swarm substrates at each of the given
// population sizes, and returns the entries so the caller can gate them
// against a baseline.
func kernelBench(w io.Writer, seed uint64, sizes []int, out string) ([]KernelBenchResult, error) {
	var entries []KernelBenchResult
	for _, n := range sizes {
		for _, sub := range []string{"gossip", "gossip-churn", "swarm"} {
			r, err := kernelBenchOne(sub, n, seed)
			if err != nil {
				return nil, fmt.Errorf("kernel bench %s/n=%d: %w", sub, n, err)
			}
			entries = append(entries, r)
		}
	}

	rows := [][]string{{"kernel", "nodes", "rounds", "ms/round", "allocs/round", "MB/round"}}
	for _, r := range entries {
		rows = append(rows, []string{
			r.Substrate,
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%d", r.Rounds),
			fmt.Sprintf("%.2f", r.NsPerRound/1e6),
			fmt.Sprintf("%.0f", r.AllocsPerRound),
			fmt.Sprintf("%.2f", r.BytesPerRound/1e6),
		})
		// Phase attribution as indented sub-rows, in tick order, so a
		// regression is immediately localizable to the phase that moved.
		for _, name := range swarm.PhaseOrder() {
			ns, ok := r.Phases[name]
			if !ok {
				continue
			}
			rows = append(rows, []string{
				"  · " + name, "", "",
				fmt.Sprintf("%.2f", ns/1e6), "", "",
			})
		}
	}
	if _, err := io.WriteString(w, metrics.RenderRows(rows)); err != nil {
		return nil, err
	}

	if out != "" {
		data, err := json.MarshalIndent(kernelBenchFile{
			GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
			Seed:         seed,
			CPUs:         runtime.NumCPU(),
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			GoVersion:    runtime.Version(),
			KernelRounds: kernelRounds,
			Entries:      entries,
		}, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		if _, err := fmt.Fprintf(w, "wrote %s\n", out); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// kernelBenchOne builds replicate 0 of the row's registry spec through
// scenario.Replicate, the model a scenario run steps, then steps it past
// its warmup so every pool and freelist is primed, and times the next
// kernelRounds rounds with the allocator's counters bracketing the loop. A
// swarm row also attributes the measured time to tick phases (the profile
// is reset after warmup so it covers exactly the measured rounds).
func kernelBenchOne(row string, n int, seed uint64) (KernelBenchResult, error) {
	spec, warmup, err := kernelBenchSpec(row, n)
	if err != nil {
		return KernelBenchResult{}, err
	}
	buildStart := time.Now()
	model, err := scenario.Replicate(spec, seed, 0)
	if err != nil {
		return KernelBenchResult{}, err
	}
	buildSeconds := time.Since(buildStart).Seconds()
	var prof *swarm.PhaseProfile
	if s, ok := model.(*swarm.Sim); ok {
		prof = &swarm.PhaseProfile{}
		swarm.WithPhaseProfile(prof)(s)
	}

	for i := 0; i < warmup; i++ {
		if err := model.Step(); err != nil {
			return KernelBenchResult{}, err
		}
	}
	if prof != nil {
		prof.Reset()
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < kernelRounds; i++ {
		if err := model.Step(); err != nil {
			return KernelBenchResult{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	r := KernelBenchResult{
		Substrate:      row,
		Nodes:          n,
		Rounds:         kernelRounds,
		NsPerRound:     float64(elapsed.Nanoseconds()) / kernelRounds,
		AllocsPerRound: float64(after.Mallocs-before.Mallocs) / kernelRounds,
		BytesPerRound:  float64(after.TotalAlloc-before.TotalAlloc) / kernelRounds,
		BuildSeconds:   buildSeconds,
	}
	if prof != nil {
		r.Phases = make(map[string]float64, len(swarm.PhaseOrder()))
		for name, ns := range prof.Phases() {
			r.Phases[name] = ns / kernelRounds
		}
	}
	return r, nil
}

// kernelBenchSpec returns the registry spec a kernel row measures at
// population n, and the steps to run before measuring: gossip-1m with no
// warmup for the gossip rows (gossip-churn adds rate-driven churn over the
// whole horizon, so its delta against the gossip row is the cost of the
// churn drain and the presence gating), and swarm-1m for the swarm row.
// The horizon is stretched to cover the warmup steps plus the measured
// rounds.
func kernelBenchSpec(row string, n int) (*scenario.Spec, int, error) {
	var name string
	switch row {
	case "gossip", "gossip-churn":
		name = "gossip-1m"
	case "swarm":
		name = "swarm-1m"
	default:
		return nil, 0, fmt.Errorf("cli: unknown kernel bench row %q", row)
	}
	spec, ok := scenario.Get(name)
	if !ok {
		return nil, 0, unknownScenario(name)
	}
	sets := []string{fmt.Sprintf("nodes=%d", n)}
	var warmup int
	if spec.Substrate == "gossip" {
		lifetime := int(spec.Params["lifetime"])
		warmup = lifetime + 1
		sets = append(sets, "params.warmup=0",
			fmt.Sprintf("params.copies=%d", min(int(spec.Params["copies"]), n)),
			fmt.Sprintf("rounds=%d", warmup+kernelRounds+lifetime))
	} else {
		warmup = swarm.DefaultConfig().RotateInterval + 1
		sets = append(sets, fmt.Sprintf("rounds=%d", warmup+kernelRounds+1))
	}
	if row == "gossip-churn" {
		sets = append(sets, "population.churn.leaveRate=0.002", "population.churn.joinRate=0.01")
	}
	return spec, warmup, spec.ApplySets(sets)
}

// checkKernelBaseline compares the fresh kernel bench entries against the
// checked-in baseline file (same schema as BENCH_kernel.json) and returns
// an error naming every (substrate, nodes) point whose ns/round regressed
// by more than kernelRegress. Points
// missing from either side are ignored, so the baseline can lag behind
// newly added sizes. Phase attributions are informational and not gated:
// wall-clock noise at phase granularity would make the guard flaky.
func checkKernelBaseline(entries []KernelBenchResult, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("cli: kernel baseline: %w", err)
	}
	var base kernelBenchFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("cli: kernel baseline %s: %w", path, err)
	}
	type key struct {
		substrate string
		nodes     int
	}
	ref := make(map[key]float64, len(base.Entries))
	for _, e := range base.Entries {
		ref[key{e.Substrate, e.Nodes}] = e.NsPerRound
	}
	var regressions []string
	for _, e := range entries {
		want, ok := ref[key{e.Substrate, e.Nodes}]
		if !ok || want <= 0 {
			continue
		}
		if e.NsPerRound > want*(1+kernelRegress) {
			regressions = append(regressions, fmt.Sprintf(
				"%s/n=%d: %.2f ms/round vs baseline %.2f ms/round (%+.0f%%, limit +%.0f%%)",
				e.Substrate, e.Nodes, e.NsPerRound/1e6, want/1e6,
				100*(e.NsPerRound/want-1), 100*kernelRegress))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("cli: kernel bench regression vs %s:\n  %s",
			path, strings.Join(regressions, "\n  "))
	}
	return nil
}
