package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
)

// BenchResult is one timed scenario run in the BENCH_scenarios.json
// artifact.
type BenchResult struct {
	// Name is the scenario (registry name, or a synthetic benchmark id).
	Name string `json:"name"`
	// Seconds is the wall time of one full run.
	Seconds float64 `json:"seconds"`
	// Points and Replicates describe the workload shape, as Run resolves
	// it.
	Points     int `json:"points"`
	Replicates int `json:"replicates"`
	// Runs is Points * Replicates, the total simulations executed (their
	// cap under a precision plan).
	Runs int `json:"runs"`
	// RunsPerSecond is the headline throughput number to track across PRs.
	RunsPerSecond float64 `json:"runsPerSecond"`
	// Mean is the mean of the scenario metric at the last sweep point, a
	// drift canary riding along with the timing.
	Mean float64 `json:"mean"`
}

// benchFile is the schema of BENCH_scenarios.json.
type benchFile struct {
	GeneratedAt string        `json:"generatedAt"`
	Seed        uint64        `json:"seed"`
	Benchmarks  []BenchResult `json:"benchmarks"`
}

// benchSet names the registry scenarios timed by `lotus-sim scenarios
// bench`: one per substrate, drawn from the cross-product grid so the
// numbers track the strategy layer end to end.
var benchSet = []string{
	"x/trade-gossip",
	"x/trade-token",
	"x/trade-scrip",
	"x/ideal-swarm",
	"x/ideal-coding",
	"x/trade-gossip+ratelimit",
}

// Bench implements `lotus-sim scenarios bench`: it times a representative
// slice of the scenario registry plus one 1000-replicate streaming-
// aggregation run, prints an aligned table, and writes the machine-readable
// BENCH_scenarios.json for the performance trajectory. It then runs the
// adaptive bench — fixed-budget vs CI-targeted replication on the three
// *-auto registry scenarios — into BENCH_adaptive.json, and the kernel
// bench — single-replicate ns/round and allocs/round for gossip (static
// and churning) and swarm at n in {10k, 100k, 1m} — into
// BENCH_kernel.json. With -cluster-out it also measures 1-vs-2-worker
// distributed throughput through a loopback coordinator/worker cluster
// into BENCH_cluster.json.
func Bench(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("lotus-sim scenarios bench", flag.ContinueOnError)
	out := fs.String("out", "BENCH_scenarios.json", "output JSON path (empty = stdout only)")
	adaptiveOut := fs.String("adaptive-out", "BENCH_adaptive.json", "adaptive-vs-fixed bench JSON path (empty = skip)")
	kernelOut := fs.String("kernel-out", "BENCH_kernel.json", "kernel bench JSON path (empty = skip the kernel bench)")
	clusterOut := fs.String("cluster-out", "", "cluster bench JSON path (empty = skip): 1-vs-2-worker replicates/sec through a loopback coordinator")
	kernelSizes := fs.String("kernel-sizes", "", "comma-separated kernel bench populations (default 10000,100000,1000000)")
	kernelBaseline := fs.String("kernel-baseline", "", "baseline BENCH_kernel.json to gate ns/round against, failing a row more than 25% slower (empty = no gate)")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sizes := kernelBenchSizes
	if *kernelSizes != "" {
		sizes = nil
		for _, part := range strings.Split(*kernelSizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 2 {
				return fmt.Errorf("lotus-sim: -kernel-sizes needs populations >= 2, got %q", part)
			}
			sizes = append(sizes, n)
		}
	}

	var results []BenchResult
	for _, name := range benchSet {
		spec, ok := scenario.Get(name)
		if !ok {
			return unknownScenario(name)
		}
		r, err := timeScenario(spec, *seed, scenario.RunOptions{})
		if err != nil {
			return fmt.Errorf("bench %s: %w", name, err)
		}
		results = append(results, r)
	}

	// The streaming-aggregation benchmark: 1000 replicates of one token-
	// model point folded through the constant-memory accumulator path —
	// the workload PR 2's aggregation layer exists for.
	stream := &scenario.Spec{
		Name:       "bench/streaming-1k",
		Substrate:  "token",
		Nodes:      64,
		Rounds:     40,
		Replicates: 1000,
		Adversary:  scenario.AdversarySpec{Kind: "trade", Fraction: 0.15, SatiateFraction: 0.60},
		Params:     map[string]float64{"tokens": 16},
	}
	r, err := timeScenario(stream, *seed, scenario.RunOptions{})
	if err != nil {
		return fmt.Errorf("bench %s: %w", stream.Name, err)
	}
	results = append(results, r)

	rows := [][]string{{"benchmark", "seconds", "runs", "runs/sec", "mean"}}
	for _, r := range results {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.3f", r.Seconds),
			fmt.Sprintf("%d", r.Runs),
			fmt.Sprintf("%.1f", r.RunsPerSecond),
			fmt.Sprintf("%.4f", r.Mean),
		})
	}
	if _, err := io.WriteString(w, metrics.RenderRows(rows)); err != nil {
		return err
	}

	if *out != "" {
		data, err := json.MarshalIndent(benchFile{
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			Seed:        *seed,
			Benchmarks:  results,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "wrote %s\n", *out); err != nil {
			return err
		}
	}

	if *adaptiveOut != "" {
		if err := adaptiveBench(w, *seed, *adaptiveOut); err != nil {
			return err
		}
	}
	if *kernelOut != "" {
		entries, err := kernelBench(w, *seed, sizes, *kernelOut)
		if err != nil {
			return err
		}
		if *kernelBaseline != "" {
			if err := checkKernelBaseline(entries, *kernelBaseline); err != nil {
				return err
			}
		}
	}
	if *clusterOut != "" {
		if err := clusterBench(w, *seed, *clusterOut); err != nil {
			return err
		}
	}
	return nil
}

// AdaptiveBenchResult is one fixed-vs-adaptive comparison in
// BENCH_adaptive.json: the same scenario run once with the full
// maxReps-per-point budget and once under its CI-targeted plan.
type AdaptiveBenchResult struct {
	// Name is the *-auto registry scenario.
	Name string `json:"name"`
	// Points and MaxReps describe the workload shape.
	Points  int `json:"points"`
	MaxReps int `json:"maxReps"`
	// Fixed* is the full-budget arm; Adaptive* the CI-targeted arm.
	FixedSeconds       float64 `json:"fixedSeconds"`
	FixedReplicates    int     `json:"fixedReplicates"`
	AdaptiveSeconds    float64 `json:"adaptiveSeconds"`
	AdaptiveReplicates int     `json:"adaptiveReplicates"`
	// PointsStoppedEarly counts sweep points resolved below the cap.
	PointsStoppedEarly int `json:"pointsStoppedEarly"`
	// ReplicateSavings is 1 - adaptive/fixed replicates; Speedup is
	// fixed/adaptive wall clock.
	ReplicateSavings float64 `json:"replicateSavings"`
	Speedup          float64 `json:"speedup"`
}

// adaptiveBenchFile is the schema of BENCH_adaptive.json.
type adaptiveBenchFile struct {
	GeneratedAt string                `json:"generatedAt"`
	Seed        uint64                `json:"seed"`
	Benchmarks  []AdaptiveBenchResult `json:"benchmarks"`
}

// adaptiveBenchSet names the *-auto scenarios timed fixed-vs-adaptive,
// shrunk to CI-sized populations (the bench tracks the runner's overhead
// and savings trajectory, not the paper's figures).
var adaptiveBenchSet = []struct {
	name string
	sets []string
}{
	{"gossip-trade-auto", []string{"nodes=120", "rounds=40", "sweep.points=4"}},
	{"token-trade-defended-auto", []string{"nodes=96", "rounds=60", "sweep.points=4"}},
	{"scrip-trade-satiation-auto", []string{"nodes=120", "rounds=1500", "sweep.points=4"}},
}

// adaptiveBench times each *-auto scenario against its own fixed-budget
// degeneration (precision stripped, replicates = maxReps) — same seed, so
// the arms share replicate streams — and reports wall clock, replicate
// counts, and how many points the stopping rule resolved early.
func adaptiveBench(w io.Writer, seed uint64, out string) error {
	var results []AdaptiveBenchResult
	for _, entry := range adaptiveBenchSet {
		spec, ok := scenario.Get(entry.name)
		if !ok {
			return unknownScenario(entry.name)
		}
		if err := spec.ApplySets(entry.sets); err != nil {
			return fmt.Errorf("bench %s: %w", entry.name, err)
		}
		if spec.Precision == nil {
			return fmt.Errorf("bench %s: not an adaptive scenario", entry.name)
		}
		maxReps := spec.Precision.MaxReps

		fixed := spec.Clone()
		fixed.Precision = nil
		fixed.Replicates = maxReps
		start := time.Now()
		if _, err := scenario.Run(fixed, seed, scenario.RunOptions{}); err != nil {
			return fmt.Errorf("bench %s (fixed arm): %w", entry.name, err)
		}
		fixedSecs := time.Since(start).Seconds()

		start = time.Now()
		a, err := scenario.Run(spec, seed, scenario.RunOptions{})
		if err != nil {
			return fmt.Errorf("bench %s (adaptive arm): %w", entry.name, err)
		}
		adaptiveSecs := time.Since(start).Seconds()

		var reps *metrics.Series
		for _, s := range a.Series {
			if s.Name == "reps" {
				reps = s
			}
		}
		if reps == nil {
			return fmt.Errorf("bench %s: adaptive artifact has no reps series", entry.name)
		}
		r := AdaptiveBenchResult{
			Name:            entry.name,
			Points:          len(reps.Points),
			MaxReps:         maxReps,
			FixedSeconds:    fixedSecs,
			FixedReplicates: len(reps.Points) * maxReps,
			AdaptiveSeconds: adaptiveSecs,
		}
		for _, p := range reps.Points {
			r.AdaptiveReplicates += int(p.Y)
			if int(p.Y) < maxReps {
				r.PointsStoppedEarly++
			}
		}
		if r.FixedReplicates > 0 {
			r.ReplicateSavings = 1 - float64(r.AdaptiveReplicates)/float64(r.FixedReplicates)
		}
		if adaptiveSecs > 0 {
			r.Speedup = fixedSecs / adaptiveSecs
		}
		results = append(results, r)
	}

	rows := [][]string{{"benchmark", "fixed s", "adaptive s", "speedup", "reps fixed", "reps adaptive", "stopped early"}}
	for _, r := range results {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.3f", r.FixedSeconds),
			fmt.Sprintf("%.3f", r.AdaptiveSeconds),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%d", r.FixedReplicates),
			fmt.Sprintf("%d", r.AdaptiveReplicates),
			fmt.Sprintf("%d/%d", r.PointsStoppedEarly, r.Points),
		})
	}
	if _, err := io.WriteString(w, metrics.RenderRows(rows)); err != nil {
		return err
	}
	data, err := json.MarshalIndent(adaptiveBenchFile{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Seed:        seed,
		Benchmarks:  results,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "wrote %s\n", out)
	return err
}

func timeScenario(spec *scenario.Spec, seed uint64, opts scenario.RunOptions) (BenchResult, error) {
	start := time.Now()
	a, err := scenario.Run(spec, seed, opts)
	if err != nil {
		return BenchResult{}, err
	}
	elapsed := time.Since(start).Seconds()
	ep := scenario.PlanOf(spec, opts)
	points := len(ep.Xs)
	r := BenchResult{
		Name:       spec.Name,
		Seconds:    elapsed,
		Points:     points,
		Replicates: ep.Plan.MaxReps,
		Runs:       points * ep.Plan.MaxReps,
		Mean:       a.Series[0].Points[points-1].Y,
	}
	if elapsed > 0 {
		r.RunsPerSecond = float64(r.Runs) / elapsed
	}
	return r, nil
}
