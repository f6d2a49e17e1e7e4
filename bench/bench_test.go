package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"maps"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationMatchesBenchmarkFile pins the workloads and metrics the
// code declares to BENCHMARK.json, name for name and unit for unit.
func TestDeclarationMatchesBenchmarkFile(t *testing.T) {
	b, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloads)
	}
	for _, c := range []struct {
		what     string
		declared []declared
		code     []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		got := map[string]string{}
		for _, d := range c.declared {
			if _, dup := got[d.Name]; dup {
				t.Errorf("%s: %s declared twice", c.what, d.Name)
			}
			got[d.Name] = d.Unit
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s: better %q", c.what, d.Name, d.Better)
			}
		}
		want := map[string]string{}
		for _, d := range c.code {
			want[d.name] = d.unit
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s: BENCHMARK.json declares %v, code reports %v", c.what, got, want)
		}
		for name, unit := range want {
			if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
				t.Errorf("%s: malformed name %q or unit %q", c.what, name, unit)
			}
		}
	}
	setup := slices.IndexFunc(b.EndToEnd, func(d declared) bool { return d.Name == "setup_s" })
	if setup < 0 {
		t.Fatal("end_to_end has no setup_s")
	}
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > b.EndToEnd[setup].Bound {
			t.Errorf("%s: bound %g outside (0, setup_s's %g]", d.Name, d.Bound, b.EndToEnd[setup].Bound)
		}
	}
}

// TestWorkloadsSmoke runs every workload with shrunken inputs, untraced
// and traced, and checks that every check passes and that the metrics
// printed are exactly the declared ones, each as "name value unit", with
// the closing JSON line the benchmark contract fixes.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			name := wl
			if trace {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, _, err := run(runConfig{workload: wl, seed: 7, trace: trace, small: true, dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted == 0 {
					t.Fatalf("correct %v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, res.Failures)
				}
				var out bytes.Buffer
				if err := report(&out, res); err != nil {
					t.Fatal(err)
				}
				want := map[string]string{}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				for _, d := range defs {
					want[d.name] = d.unit
				}
				printed := map[string]string{}
				var last string
				sc := bufio.NewScanner(&out)
				for sc.Scan() {
					last = sc.Text()
					f := strings.Fields(last)
					if len(f) == 3 && !strings.HasPrefix(last, "#") {
						printed[f[0]] = f[2]
					}
				}
				if !maps.Equal(printed, want) {
					t.Errorf("printed %v, want %v", printed, want)
				}
				var line map[string]json.RawMessage
				if err := json.Unmarshal([]byte(last), &line); err != nil {
					t.Fatalf("last line %q: %v", last, err)
				}
				if keys := slices.Sorted(maps.Keys(line)); !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
					t.Errorf("last line keys %v", keys)
				}
				var metrics map[string]metricValue
				if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				for name, unit := range want {
					if metrics[name].Unit != unit {
						t.Errorf("%s: unit %q, want %q", name, metrics[name].Unit, unit)
					}
					if !trace && metrics[name].Value <= 0 {
						t.Errorf("%s: end-to-end value %v is not positive", name, metrics[name].Value)
					}
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{4, 1}, 0.25, 4.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 10, 7, 13, 10, 9, 11}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"unchanged", steady, scaled(1.01), true, "same"},
		{"slower beyond bound", steady, scaled(1.2), true, "worse"},
		{"faster in every pair", steady, scaled(0.8), true, "better"},
		{"faster with five pairs is no claim", steady[:5], scaled(0.8)[:5], true, "same"},
		{"higher is better", steady, scaled(1.2), false, "better"},
		{"parent spread wider than bound", noisy, noisy, true, "unresolved"},
	} {
		if got := judge(c.a, c.b, c.lowerBetter, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
