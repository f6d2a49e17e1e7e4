package scenario

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"lotuseater/internal/metrics"
)

// A Figure is one of the paper's tables or figures as scenario data: a
// named list of labelled arms, each a Spec. RunFigure executes every arm
// through Run with one seed, so all arms see the same replicate streams
// (common random numbers) and the differences between them are paired
// comparisons.
//
// A series figure merges each arm's mean series into one artifact. Arms
// that share a label are segments of one series — a sweep over an uneven
// grid — merged in x order. A table figure has one row per sweepless arm
// and one cell per column: the arm's mean of the column's metric, every
// cell of a row folded from the same replicates.
type Figure struct {
	// Name is the registry key, e.g. "figure1".
	Name string
	// Title is the artifact headline.
	Title string
	// Description is the one-liner `lotus-sim list` shows.
	Description string
	// XLabel names the x axis of a series figure.
	XLabel string
	// Crossover notes where each series drops below the paper's 0.93
	// usability threshold.
	Crossover bool
	// FixedGrid keeps the arms' own sweep points: RunOptions.Points would
	// re-grid uneven segments and fixed integer axes.
	FixedGrid bool
	// Arms are the figure's scenarios in output order.
	Arms []Arm
	// RowLabel heads the first column of a table figure.
	RowLabel string
	// Columns, when set, make the figure a table.
	Columns []Column
	// Rows is a fixed table that runs nothing (Table 1's parameters).
	Rows [][]string
}

// Arm is one labelled scenario of a figure: a series (or a segment of
// one), or a table row.
type Arm struct {
	Label string
	Spec  *Spec
}

// Column is one table column: a metric of each row's arm and the format
// of its mean.
type Column struct {
	Header string
	Metric string
	Format string
}

// figures is the figure registry: filled at init (figures.go), read-only
// afterwards.
var figures = map[string]*Figure{}

// fullQuality is the paper-fidelity run: 26 sweep points, 5 replicates.
var fullQuality = RunOptions{Points: 26, Replicates: 5}

// registerFigure adds f, naming each unnamed arm spec "<figure>/<label>"
// and giving it full quality where it leaves replicates or sweep points
// unset. It panics on a duplicate name or an invalid arm — programmer
// errors at init time.
func registerFigure(f *Figure) {
	if _, dup := figures[f.Name]; dup {
		panic(fmt.Sprintf("scenario: duplicate figure %q", f.Name))
	}
	for _, a := range f.Arms {
		if a.Spec.Name == "" {
			a.Spec.Name = f.Name + "/" + a.Label
		}
		if a.Spec.Replicates == 0 {
			a.Spec.Replicates = fullQuality.Replicates
		}
		if a.Spec.Sweep.Axis != "" && a.Spec.Sweep.Points == 0 {
			a.Spec.Sweep.Points = fullQuality.Points
		}
		if err := a.Spec.Validate(); err != nil {
			panic(fmt.Sprintf("scenario: figure %q: arm %q: %v", f.Name, a.Label, err))
		}
	}
	figures[f.Name] = f
}

// GetFigure looks a figure up by name. Figures are shared: callers must
// not modify them (clone an arm's Spec before changing it).
func GetFigure(name string) (*Figure, bool) {
	f, ok := figures[name]
	return f, ok
}

// Figures returns every registered figure sorted by name.
func Figures() []*Figure {
	out := make([]*Figure, 0, len(figures))
	for _, name := range slices.Sorted(maps.Keys(figures)) {
		out = append(out, figures[name])
	}
	return out
}

// Quality maps the -quality spellings onto run options: "full" runs the
// figures at paper fidelity, "quick" is for smoke runs and tests (6
// points, 1 replicate).
func Quality(name string) (RunOptions, error) {
	switch name {
	case "full":
		return fullQuality, nil
	case "quick":
		return RunOptions{Points: 6, Replicates: 1}, nil
	default:
		return RunOptions{}, fmt.Errorf("unknown quality %q (want full|quick)", name)
	}
}

// RunFigure runs the named figure (see Figure) and returns its artifact.
func RunFigure(name string, seed uint64, opts RunOptions) (*metrics.Artifact, error) {
	f, ok := GetFigure(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown figure %q (known: %s)", name, strings.Join(slices.Sorted(maps.Keys(figures)), ", "))
	}
	return f.run(seed, opts)
}

// run executes the figure's arms and assembles its artifact.
func (f *Figure) run(seed uint64, opts RunOptions) (*metrics.Artifact, error) {
	a := &metrics.Artifact{Name: f.Name, Title: f.Title}
	if f.Rows != nil {
		for _, r := range f.Rows {
			a.Table = append(a.Table, slices.Clone(r))
		}
		return a, nil
	}
	if len(f.Columns) > 0 {
		header := []string{f.RowLabel}
		for _, c := range f.Columns {
			header = append(header, c.Header)
		}
		a.Table = [][]string{header}
		for _, arm := range f.Arms {
			row := []string{arm.Label}
			for _, c := range f.Columns {
				spec := arm.Spec.Clone()
				spec.Metric = c.Metric
				run, err := Run(spec, seed, opts)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf(c.Format, run.Series[0].Points[0].Y)) // the mean
			}
			a.Table = append(a.Table, row)
		}
		return a, nil
	}

	if f.FixedGrid {
		opts.Points = 0
	}
	a.XLabel = f.XLabel
	for _, arm := range f.Arms {
		run, err := Run(arm.Spec, seed, opts)
		if err != nil {
			return nil, err
		}
		i := slices.IndexFunc(a.Series, func(s *metrics.Series) bool { return s.Name == arm.Label })
		if i < 0 {
			i = len(a.Series)
			a.Series = append(a.Series, &metrics.Series{Name: arm.Label})
		}
		a.Series[i].Points = append(a.Series[i].Points, run.Series[0].Points...) // the mean
	}
	for _, s := range a.Series {
		s.Sort()
		if x, ok := s.CrossoverBelow(0.93); ok && f.Crossover {
			a.Notes = append(a.Notes, fmt.Sprintf("%s drops below the 0.93 usability threshold at x = %.3f", s.Name, x))
		}
	}
	return a, nil
}
