package cli

import (
	"flag"
	"fmt"
	"io"

	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
)

// RunExperiment implements `lotus-sim run <name> [flags]`: a figure of the
// paper by name, run at -quality, or anything `scenarios run` accepts (a
// registered scenario or -spec file.json, re-parameterized with -set).
// Figures are fixed data and reject -set.
func RunExperiment(w io.Writer, args []string) error {
	name := ""
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		name = args[0]
	}
	if _, ok := scenario.GetFigure(name); !ok {
		if _, ok := scenario.Get(name); name != "" && !ok {
			return fmt.Errorf("unknown experiment or scenario %q; see `lotus-sim list` (figures) and `lotus-sim scenarios list`", name)
		}
		return ScenariosRun(w, args)
	}

	fs := flag.NewFlagSet("lotus-sim run", flag.ContinueOnError)
	var sets setFlags
	fs.Var(&sets, "set", "scenario overrides (figures reject them)")
	quality := fs.String("quality", "full", "figure quality: full|quick")
	seed := fs.Uint64("seed", 1, "random seed")
	format := fs.String("format", "text", "output format: text|csv|json")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if len(sets) > 0 {
		return fmt.Errorf("figure %q is fixed data; -set overrides only apply to scenarios (`lotus-sim scenarios list`)", name)
	}
	f, err := ParseFormat(*format)
	if err != nil {
		return err
	}
	opts, err := scenario.Quality(*quality)
	if err != nil {
		return err
	}
	a, err := scenario.RunFigure(name, *seed, opts)
	if err != nil {
		return err
	}
	return EmitArtifact(w, a, f)
}

// List implements `lotus-sim list`: the figure catalogue as an aligned
// table of name and description.
func List(w io.Writer) error {
	rows := [][]string{{"figure", "description"}}
	for _, f := range scenario.Figures() {
		rows = append(rows, []string{f.Name, f.Description})
	}
	_, err := io.WriteString(w, metrics.RenderRows(rows))
	return err
}

// figuresOrder is the curated presentation order of the figures command —
// the paper's tables and figures first, then extensions — by its short
// ids.
var figuresOrder = []string{
	"table1", "fig1", "fig2", "fig3", "altruism", "gridcut", "raretoken",
	"scrip", "swarm", "coding", "reporting", "ratelimit", "rotating",
	"inflation", "hoarding", "satiate-ablation",
}

// figuresAliases maps the figures command's short ids to figure names.
// Most ids are figure names already; "scrip" expands to both scrip
// figures.
var figuresAliases = map[string][]string{
	"fig1":  {"figure1"},
	"fig2":  {"figure2"},
	"fig3":  {"figure3"},
	"scrip": {"scrip-money-supply", "scrip-rare-provider"},
}

// Figures implements the figures command: regenerate every table and figure
// of the paper (or one of them, via -exp) as aligned text tables or CSV.
func Figures(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id (table1|fig1|fig2|fig3|altruism|gridcut|raretoken|scrip|swarm|coding|reporting|ratelimit|rotating|inflation|hoarding|satiate-ablation|all)")
	quality := fs.String("quality", "full", "sweep quality: full|quick")
	seed := fs.Uint64("seed", 1, "random seed")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts, err := scenario.Quality(*quality)
	if err != nil {
		return err
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = figuresOrder
	}
	for _, id := range ids {
		names, ok := figuresAliases[id]
		if !ok {
			names = []string{id}
		}
		for _, name := range names {
			a, err := scenario.RunFigure(name, *seed, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			if err := emitFigure(w, a, *csv); err != nil {
				return err
			}
		}
	}
	return nil
}

// emitFigure prints one artifact in the figures command's traditional
// layout: a "## title" header, the table or CSV body, crossover notes, and
// a trailing blank line.
func emitFigure(w io.Writer, a *metrics.Artifact, csv bool) error {
	if csv && len(a.Table) == 0 {
		if _, err := fmt.Fprintf(w, "## %s\n\n%s", a.Title, a.CSV()); err != nil {
			return err
		}
		for _, n := range a.Notes {
			if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
				return err
			}
		}
	} else {
		if _, err := io.WriteString(w, a.Text()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
