// Command lotus-bench is the repository's benchmark: one workload per
// invocation, in a fresh process, measured from outside every layer by
// timing calls into each module's public functions.
//
//	lotus-bench -workload <name> -seed <n> [-seconds <s>] [-trace 0|1] [-out result.json] [-spans spans.json]
//	lotus-bench compare A.json... -- B.json...
//
// Every run uses one processor (GOMAXPROCS 1). An untraced run sets the
// workload up three times, then runs passes of its fixed work until
// -seconds have passed, and reports the end-to-end metrics. A traced run
// (-trace 1) runs one untraced and one traced pass and reports the
// per-layer metrics. Both print every metric as
// "name value unit", check the program's outputs, and end with one JSON
// line {"correct", "attempted", "failed", "metrics"}. The exit status is 1
// when a check failed. bench/README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
)

// benchProcs is the GOMAXPROCS a run measures at. One processor on a small
// shared host leaves a core for everything else on the machine, so the
// times measure the program rather than the scheduler; the engine's worker
// pool and the gossip and swarm shards all size themselves from it.
const benchProcs = 1

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lotus-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-figures|churn-100k|service")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 30, "keep running untraced passes until this many seconds have passed (at least one pass)")
	trace := fs.Int("trace", 0, "1 runs one untraced and one traced pass and reports the per-layer metrics")
	out := fs.String("out", "", "write the full result (samples, environment, failures) as JSON to this file")
	spans := fs.String("spans", "", "write a traced run's spans as JSON to this file (default .bench_build/spans-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *name == "" || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "usage: lotus-bench -workload <name> -seed <n> [-seconds <s>] [-trace 0|1] [-out file] [-spans file]")
		return 2
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cfg := runConfig{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir}
	// Before any scenario runs: the engine sizes its worker pool once.
	runtime.GOMAXPROCS(benchProcs)
	res, tr, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if tr != nil {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+*name+".json")
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = writeSpans(path, tr)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	}
	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if err := report(stdout, res); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the run's context, raw samples, every metric as
// "name value unit", a traced run's self times, and the closing JSON line.
func report(w io.Writer, res *result) error {
	e := res.Env
	fmt.Fprintf(w, "# workload %s seed %d trace %v passes %d cpus %d gomaxprocs %d %s %s/%s\n",
		res.Workload, res.Seed, res.Trace, res.Passes, e.CPUs, e.GOMAXPROCS, e.Go, e.OS, e.Arch)
	for _, name := range slices.Sorted(maps.Keys(res.Samples)) {
		fmt.Fprintf(w, "# samples %s %v\n", name, res.Samples[name])
	}
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "%s %s %s\n", d.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	if res.Trace {
		wall := res.Samples["wall_s"][1]
		for _, layer := range traceLayers {
			fmt.Fprintf(w, "# self %-9s %9.4f s %6.1f%% of traced wall\n", layer, res.SelfTimes[layer], 100*res.SelfTimes[layer]/wall)
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "# FAILED %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
