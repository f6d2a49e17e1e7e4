package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"lotuseater/internal/attack"
	"lotuseater/internal/gossip"
	"lotuseater/internal/metrics"
	"lotuseater/internal/population"
	"lotuseater/internal/sim"
	"lotuseater/internal/simrng"
	"lotuseater/internal/swarm"
)

// KernelBenchResult is one (substrate, population) measurement in
// BENCH_kernel.json: the per-round cost of stepping a single replicate, the
// number the sparse-satiation and in-replicate-parallelism work optimizes.
type KernelBenchResult struct {
	// Substrate is the simulator measured (gossip, swarm).
	Substrate string `json:"substrate"`
	// Nodes is the population size.
	Nodes int `json:"nodes"`
	// Rounds is how many steady-state rounds were measured (after warmup).
	Rounds int `json:"rounds"`
	// NsPerRound is wall time per simulated round in nanoseconds.
	NsPerRound float64 `json:"nsPerRound"`
	// AllocsPerRound is heap allocations per round — the satiation-path
	// O(|satiated set|) claim made measurable. Pool fan-out shards count.
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
// GOMAXPROCS, Go version — and the steady-state rounds behind each entry.
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

// kernelBench measures ns/round and allocs/round for one replicate of the
// gossip (static and churning) and swarm substrates at each of the given
// population sizes, and
// returns the entries so the caller can gate them against a baseline.
// rounds is the measured steady-state round count (the CI default is low;
// raise it locally for tighter numbers).
func kernelBench(w io.Writer, seed uint64, rounds int, sizes []int, out string) ([]KernelBenchResult, error) {
	var entries []KernelBenchResult
	for _, n := range sizes {
		for _, sub := range []string{"gossip", "gossip-churn", "swarm"} {
			r, err := kernelBenchOne(sub, n, rounds, seed)
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
			KernelRounds: rounds,
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

// kernelBenchOne builds one model, steps it past its warmup so every pool
// and freelist is primed, then times `rounds` steady-state rounds with the
// allocator's counters bracketing the loop. Substrates with phase
// instrumentation additionally attribute the steady-state time to tick
// phases (the profile is reset after warmup so it covers exactly the
// measured rounds).
func kernelBenchOne(substrate string, n, rounds int, seed uint64) (KernelBenchResult, error) {
	buildStart := time.Now()
	model, warmup, prof, err := kernelBenchModel(substrate, n, rounds, seed)
	if err != nil {
		return KernelBenchResult{}, err
	}
	buildSeconds := time.Since(buildStart).Seconds()

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
	for i := 0; i < rounds; i++ {
		if err := model.Step(); err != nil {
			return KernelBenchResult{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	r := KernelBenchResult{
		Substrate:      substrate,
		Nodes:          n,
		Rounds:         rounds,
		NsPerRound:     float64(elapsed.Nanoseconds()) / float64(rounds),
		AllocsPerRound: float64(after.Mallocs-before.Mallocs) / float64(rounds),
		BytesPerRound:  float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds),
		BuildSeconds:   buildSeconds,
	}
	if prof != nil {
		r.Phases = make(map[string]float64, len(swarm.PhaseOrder()))
		for name, ns := range prof.Phases() {
			r.Phases[name] = ns / float64(rounds)
		}
	}
	return r, nil
}

// kernelBenchModel builds the benchmark replicate: the same shapes the
// gossip-1m / swarm-1m registry scenarios use, horizon stretched to cover
// warmup plus the measured rounds. The returned PhaseProfile is non-nil
// only for substrates with phase instrumentation (swarm).
func kernelBenchModel(substrate string, n, rounds int, seed uint64) (sim.Model, int, *swarm.PhaseProfile, error) {
	switch substrate {
	case "gossip", "gossip-churn":
		cfg := gossip.DefaultConfig()
		cfg.Nodes = n
		cfg.UpdatesPerRound = 1
		cfg.Lifetime = 8
		cfg.CopiesSeeded = 64
		if cfg.CopiesSeeded > n {
			cfg.CopiesSeeded = n
		}
		warmup := cfg.Lifetime + 1
		cfg.Rounds = warmup + rounds + cfg.Lifetime
		cfg.Warmup = 0
		adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.02, SatiateFraction: 0.30}
		opts := []gossip.Option{gossip.WithAdversary(adv)}
		if substrate == "gossip-churn" {
			// The same replicate with a synthesized lifecycle schedule
			// spanning the whole horizon: the delta against the plain gossip
			// row is the cost of the churn drain plus the presence gating on
			// the exchange paths.
			minPresent := n / 10
			if minPresent < 2 {
				minPresent = 2
			}
			events := population.Synthesize(
				population.Rates{LeaveRate: 0.002, JoinRate: 0.01},
				n, cfg.Rounds, minPresent, simrng.New(seed).Child("bench-churn"))
			opts = append(opts, gossip.WithChurn(events))
		}
		e, err := gossip.New(cfg, seed, opts...)
		return e, warmup, nil, err
	case "swarm":
		cfg := swarm.DefaultConfig()
		cfg.Leechers = n
		cfg.Pieces = 32
		cfg.PeerSetSize = 8
		cfg.AttackerUplink = 4096
		warmup := cfg.RotateInterval + 1
		cfg.Ticks = warmup + rounds + 1
		adv := &attack.Strategy{Kind: attack.Ideal, Fraction: 0.01, SatiateFraction: 0.10}
		prof := &swarm.PhaseProfile{}
		s, err := swarm.New(cfg, seed, swarm.WithAdversary(adv), swarm.WithPhaseProfile(prof))
		return s, warmup, prof, err
	default:
		return nil, 0, nil, fmt.Errorf("cli: unknown kernel bench substrate %q", substrate)
	}
}

// checkKernelBaseline compares the fresh kernel bench entries against the
// checked-in baseline file (same schema as BENCH_kernel.json) and returns
// an error naming every (substrate, nodes) point whose ns/round regressed
// by more than tolerance (0.25 = fail when more than 25% slower). Points
// missing from either side are ignored, so the baseline can lag behind
// newly added sizes. Phase attributions are informational and not gated:
// wall-clock noise at phase granularity would make the guard flaky.
func checkKernelBaseline(entries []KernelBenchResult, path string, tolerance float64) error {
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
		if e.NsPerRound > want*(1+tolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s/n=%d: %.2f ms/round vs baseline %.2f ms/round (%+.0f%%, limit +%.0f%%)",
				e.Substrate, e.Nodes, e.NsPerRound/1e6, want/1e6,
				100*(e.NsPerRound/want-1), 100*tolerance))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("cli: kernel bench regression vs %s:\n  %s",
			path, strings.Join(regressions, "\n  "))
	}
	return nil
}
