package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"lotuseater/internal/metrics"
	"lotuseater/internal/scenario"
)

// setFlags collects repeated -set key=value overrides.
type setFlags []string

func (s *setFlags) String() string { return strings.Join(*s, ",") }

func (s *setFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// Scenarios implements `lotus-sim scenarios <list|show|run|bench>`: the
// declarative scenario catalogue.
func Scenarios(w io.Writer, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: lotus-sim scenarios <list|show|run|bench>")
	}
	switch args[0] {
	case "list":
		return ScenariosList(w)
	case "show":
		return ScenariosShow(w, args[1:])
	case "run":
		return ScenariosRun(w, args[1:])
	case "bench":
		return Bench(w, args[1:])
	default:
		return fmt.Errorf("scenarios: unknown subcommand %q (want list|show|run|bench)", args[0])
	}
}

// ScenariosList prints the scenario catalogue as an aligned table.
func ScenariosList(w io.Writer) error {
	rows := [][]string{{"scenario", "substrate", "adversary", "defense", "sweep", "description"}}
	for _, s := range scenario.All() {
		kind := s.Adversary.Kind
		if kind == "" {
			kind = "none"
		}
		def := s.Defense.Kind
		if def == "" {
			def = "none"
		}
		rows = append(rows, []string{s.Name, s.Substrate, kind, def, s.Sweep.Axis, s.Description})
	}
	_, err := io.WriteString(w, metrics.RenderRows(rows))
	return err
}

// ScenariosShow prints one spec as JSON — the exact format `run -spec`
// accepts and -set overrides address.
func ScenariosShow(w io.Writer, args []string) error {
	if len(args) == 0 || args[0] == "" || args[0][0] == '-' {
		return fmt.Errorf("usage: lotus-sim scenarios show <name>")
	}
	spec, ok := scenario.Get(args[0])
	if !ok {
		return unknownScenario(args[0])
	}
	data, err := spec.JSON()
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "// metrics: %s\n", strings.Join(spec.Metrics(), ", "))
	return err
}

// ScenariosRun implements `lotus-sim scenarios run <name>` and
// `... run -spec file.json`, with repeated -set key=value overrides.
func ScenariosRun(w io.Writer, args []string) error {
	name := ""
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		name, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("lotus-sim scenarios run", flag.ContinueOnError)
	var sets setFlags
	fs.Var(&sets, "set", "override a spec field by the JSON path scenarios show prints, key=value (repeatable)")
	specPath := fs.String("spec", "", "load the scenario from a JSON spec file instead of the registry")
	tracePath := fs.String("trace", "", "replay a churn trace file (examples/traces/ format) as the spec's population churn")
	seed := fs.Uint64("seed", 1, "random seed")
	format := fs.String("format", "text", "output format: text|csv|json")
	replicates := fs.Int("replicates", 0, "override replicates per sweep point (0 = spec value; dead under an active precision plan)")
	workers := fs.Int("workers", 0, "bound in-flight replicates on the shared pool (0 = pool width; results never depend on it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := ParseFormat(*format)
	if err != nil {
		return err
	}
	spec, err := resolveSpec(name, *specPath)
	if err != nil {
		return err
	}
	if *tracePath != "" {
		tr, err := scenario.LoadTrace(*tracePath)
		if err != nil {
			return err
		}
		if err := tr.ApplyTo(spec); err != nil {
			return err
		}
	}
	if err := spec.ApplySets(sets); err != nil {
		return err
	}
	a, err := scenario.Run(spec, *seed, scenario.RunOptions{
		Workers:    *workers,
		Replicates: *replicates,
	})
	if err != nil {
		return err
	}
	return EmitArtifact(w, a, f)
}

// resolveSpec loads a scenario by registry name or from a JSON file;
// exactly one source must be given.
func resolveSpec(name, specPath string) (*scenario.Spec, error) {
	switch {
	case name != "" && specPath != "":
		return nil, fmt.Errorf("give a scenario name or -spec, not both")
	case specPath != "":
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		return scenario.Decode(data)
	case name != "":
		spec, ok := scenario.Get(name)
		if !ok {
			return nil, unknownScenario(name)
		}
		return spec, nil
	default:
		return nil, fmt.Errorf("usage: lotus-sim scenarios run <name> [-set key=val ...] | -spec file.json; `lotus-sim scenarios list` shows the scenarios, `lotus-sim list` the figures")
	}
}

func unknownScenario(name string) error {
	return fmt.Errorf("unknown scenario %q; `lotus-sim scenarios list` shows the %d registered scenarios", name, len(scenario.Names()))
}
