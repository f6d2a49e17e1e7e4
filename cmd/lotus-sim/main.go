// Command lotus-sim is the single entry point to the whole reproduction.
//
// Subcommands:
//
//	lotus-sim list                                  # the paper's figures
//	lotus-sim run figure1 -quality quick            # run a figure
//	lotus-sim run gridcut -format json              # ... as JSON (or csv)
//	lotus-sim figures -exp all -quality full        # regenerate every table and figure
//	lotus-sim scenarios run x/trade-gossip -set adversary.fraction=0.22
//	                                                # one scenario, re-parameterized
//	lotus-sim serve -addr localhost:8321            # the HTTP experiment service
//	lotus-sim serve -role coordinator               # cluster front: shards jobs to workers
//	lotus-sim serve -role worker -join http://c:8321  # one cluster execution node
package main

import (
	"fmt"
	"os"
	"strings"

	"lotuseater/internal/cli"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lotus-sim:", err)
		os.Exit(1)
	}
}

func usage() string {
	return strings.TrimSpace(`
usage: lotus-sim <command> [flags]

commands:
  list       show the paper's tables and figures
  run        run a figure or scenario by name (-quality, -seed, -format,
             -set key=val ..., -spec file.json)
  scenarios  declarative scenarios: list | show <name> | run <name> | bench
  serve      long-running HTTP experiment service with a content-addressed
             result cache (-addr, -cache-bytes, -queue-depth, -workers);
             scales out with -role=coordinator|worker -join=<url> [-advertise=<url>]
  figures    regenerate the paper's tables and figures (-exp, -quality, -csv)

A single simulation is a sweepless scenario, e.g.
  lotus-sim scenarios run x/trade-gossip -set sweep.axis= -set adversary.fraction=0.22 -set replicates=1
`)
}

func run(args []string) error {
	w := os.Stdout
	if len(args) == 0 {
		return fmt.Errorf("missing command\n%s", usage())
	}
	switch args[0] {
	case "list":
		return cli.List(w)
	case "run":
		return cli.RunExperiment(w, args[1:])
	case "scenarios":
		return cli.Scenarios(w, args[1:])
	case "serve":
		return cli.Serve(w, args[1:])
	case "figures":
		return cli.Figures(w, args[1:])
	case "help", "-h", "-help", "--help":
		fmt.Fprintln(w, usage())
		return nil
	default:
		return fmt.Errorf("unknown command %q\n%s", args[0], usage())
	}
}
