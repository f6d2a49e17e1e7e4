package lotuseater

// One benchmark per table and figure of the paper and the extension
// experiments. Each regenerates its figure through RunFigure at reduced
// quality (full fidelity is `lotus-sim figures -quality full`) and reports
// a headline reproduction metric via b.ReportMetric, so
// `go test -bench=Figure` doubles as a quick sanity pass over the whole
// reproduction.

import (
	"testing"
)

// figureBenches lists each figure's benchmark: its run options (zero
// means four sweep points, one replicate) and its headline metrics.
var figureBenches = []struct {
	name      string
	opts      RunOptions
	headlines map[string]func(testing.TB, *Artifact) float64
}{
	{"table1", RunOptions{}, nil},
	{"figure1", RunOptions{}, map[string]func(testing.TB, *Artifact) float64{
		// The no-attack point is one run at the paper's Table 1 defaults.
		"delivery":        func(_ testing.TB, a *Artifact) float64 { return a.Series[0].Points[0].Y },
		"trade-crossover": crossover(2),
	}},
	{"figure2", RunOptions{}, map[string]func(testing.TB, *Artifact) float64{"ideal-crossover": crossover(1)}},
	{"figure3", RunOptions{}, map[string]func(testing.TB, *Artifact) float64{
		"defended-delivery": func(_ testing.TB, a *Artifact) float64 { return a.Series[3].YAt(0.35) },
	}},
	{"altruism", RunOptions{}, map[string]func(testing.TB, *Artifact) float64{"completion-at-max-a": lastY(0)}},
	{"gridcut", RunOptions{}, map[string]func(testing.TB, *Artifact) float64{
		"cut-coverage": func(t testing.TB, a *Artifact) float64 {
			return cell(t, a, "grid/column-cut", "rare-token-coverage")
		},
	}},
	{"raretoken", RunOptions{}, map[string]func(testing.TB, *Artifact) float64{
		"completion-at-a0": func(_ testing.TB, a *Artifact) float64 { return a.Series[0].Points[0].Y },
	}},
	{"scrip-money-supply", RunOptions{}, map[string]func(testing.TB, *Artifact) float64{"satiated-at-max-f": lastY(0)}},
	{"scrip-rare-provider", RunOptions{}, map[string]func(testing.TB, *Artifact) float64{
		"attacked-availability": func(_ testing.TB, a *Artifact) float64 { return a.Series[0].Points[0].Y },
	}},
	{"swarm", RunOptions{Replicates: 1}, map[string]func(testing.TB, *Artifact) float64{
		"attacked-completion": func(t testing.TB, a *Artifact) float64 {
			return cell(t, a, "fragile/rare-attack/rarest-first", "completed")
		},
	}},
	{"coding", RunOptions{}, map[string]func(testing.TB, *Artifact) float64{
		"coded-minus-plain": func(t testing.TB, a *Artifact) float64 { return lastY(1)(t, a) - lastY(0)(t, a) },
	}},
	{"reporting", RunOptions{}, map[string]func(testing.TB, *Artifact) float64{"evictions-at-full-obedience": lastY(1)}},
	{"ratelimit", RunOptions{}, map[string]func(testing.TB, *Artifact) float64{
		"delivery-recovered-by-cap1": func(_ testing.TB, a *Artifact) float64 {
			return a.Series[0].Points[1].Y - a.Series[0].Points[0].Y
		},
	}},
	{"rotating", RunOptions{Replicates: 1}, map[string]func(testing.TB, *Artifact) float64{
		"outage-spread": func(t testing.TB, a *Artifact) float64 {
			return cell(t, a, "rotating", "nodes-with-outage") - cell(t, a, "static", "nodes-with-outage")
		},
	}},
	{"inflation", RunOptions{}, map[string]func(testing.TB, *Artifact) float64{"availability-past-cliff": lastY(0)}},
	{"hoarding", RunOptions{}, map[string]func(testing.TB, *Artifact) float64{"availability-at-max-hoarders": lastY(0)}},
	{"satiate-ablation", RunOptions{}, map[string]func(testing.TB, *Artifact) float64{
		"peak-victims": func(_ testing.TB, a *Artifact) float64 {
			peak := 0.0
			for _, p := range a.Series[1].Points {
				peak = max(peak, p.Y)
			}
			return peak
		},
	}},
}

// crossover reads where series i drops below the 0.93 usability threshold.
func crossover(i int) func(testing.TB, *Artifact) float64 {
	return func(_ testing.TB, a *Artifact) float64 {
		x, _ := a.Series[i].CrossoverBelow(0.93)
		return x
	}
}

// lastY reads series i's final point.
func lastY(i int) func(testing.TB, *Artifact) float64 {
	return func(_ testing.TB, a *Artifact) float64 {
		pts := a.Series[i].Points
		return pts[len(pts)-1].Y
	}
}

func BenchmarkFigure(b *testing.B) {
	for _, fb := range figureBenches {
		b.Run(fb.name, func(b *testing.B) {
			opts := fb.opts
			if opts.Points == 0 && opts.Replicates == 0 {
				opts = RunOptions{Points: 4, Replicates: 1}
			}
			var a *Artifact
			for i := 0; i < b.N; i++ {
				a = figure(b, fb.name, uint64(i), opts)
			}
			for unit, headline := range fb.headlines {
				b.ReportMetric(headline(b, a), unit)
			}
		})
	}
}
