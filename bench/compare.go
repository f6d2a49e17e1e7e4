package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// declared is a metric as BENCHMARK.json declares it.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// errNotSame reports that compare found a metric worse or unresolved.
var errNotSame = errors.New("compare: some metrics are worse or unresolved")

// compareMain compares untraced results of a parent commit (the files
// before "--") with a change (the files after it), workload by workload.
// The two lists are paired in order, so list the runs in the order they
// were made, alternating the sides.
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	path := fs.String("benchmark", "BENCHMARK.json", "the benchmark declaration whose bounds apply")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	sep := slices.Index(rest, "--")
	if sep <= 0 || sep == len(rest)-1 {
		return fmt.Errorf("usage: lotus-bench compare [-benchmark BENCHMARK.json] A.json... -- B.json...")
	}
	bench, err := loadBenchmark(*path)
	if err != nil {
		return err
	}
	parent, err := loadResults(rest[:sep])
	if err != nil {
		return err
	}
	change, err := loadResults(rest[sep+1:])
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tchange\tbound\twins\tverdict")
	notSame := false
	for _, wl := range bench.Workloads {
		a, b := parent[wl.Name], change[wl.Name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range bench.EndToEnd {
			av, bv := values(a, m.Name), values(b, m.Name)
			v := judge(av, bv, m.Better == "lower", m.Bound)
			if v.verdict == "worse" || v.verdict == "unresolved" {
				notSame = true
			}
			aq1, aq3 := quartiles(av)
			bq1, bq3 := quartiles(bv)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%+.1f%%\t%.0f%%\t%d/%d\t%s\n",
				wl.Name, m.Name, median(av), aq1, aq3, m.Unit, median(bv), bq1, bq3, m.Unit,
				100*v.change, 100*m.Bound, v.wins, v.pairs, v.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if notSame {
		return errNotSame
	}
	return nil
}

// loadResults reads untraced result files (-out) and groups them by
// workload, keeping their order.
func loadResults(paths []string) (map[string][]*result, error) {
	out := map[string][]*result{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace {
			return nil, fmt.Errorf("%s: a traced run has no end-to-end metrics", p)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	return out, nil
}

func values(rs []*result, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// comparison is one metric's verdict on one workload.
type comparison struct {
	change      float64 // (change median - parent median) / parent median
	wins, pairs int
	verdict     string
}

// judge applies the benchmark's rule to the parent's values a and the
// change's values b, paired in order:
//
//   - better: at least ten pairs, the change wins at least nine in ten of
//     them (ties count for neither), and the medians differ by more than
//     the parent's interquartile range, in the better direction;
//   - unresolved: the parent's own spread (IQR over median) exceeds the
//     bound, unless every change run reads better than every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - same: otherwise.
func judge(a, b []float64, lowerBetter bool, bound float64) comparison {
	better := func(x, y float64) bool {
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	c := comparison{pairs: min(len(a), len(b))}
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	ma, mb := median(a), median(b)
	if ma != 0 {
		c.change = (mb - ma) / ma
	}
	worse := c.change
	if !lowerBetter {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	spread := 0.0
	if ma != 0 {
		spread = iqr(a) / ma
	}
	switch {
	case c.pairs >= 10 && 10*c.wins >= 9*c.pairs && better(mb, ma) && math.Abs(mb-ma) > iqr(a):
		c.verdict = "better"
	case spread > bound && !allBetter:
		c.verdict = "unresolved"
	case worse > bound:
		c.verdict = "worse"
	default:
		c.verdict = "same"
	}
	return c
}
