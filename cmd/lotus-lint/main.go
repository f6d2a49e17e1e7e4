// Command lotus-lint runs the repo's project-specific static analyzers
// (internal/analysis): detrand, maprange, and allocfree — the
// determinism and hot-path rules the README states in prose, checked at
// compile time. It is stdlib-only: packages are loaded with go/parser and
// type-checked with go/types over the source importer, so `go run
// ./cmd/lotus-lint ./...` works on a bare toolchain with no module
// downloads.
//
// Usage:
//
//	lotus-lint [-json] [-json-out file] [patterns...]
//
// Patterns are import-path patterns relative to the module: `./...` (the
// default) lints every package; `./internal/...` or
// `lotuseater/internal/swarm` narrow the scope. Findings print as
//
//	file:line:col: [analyzer] message
//
// and the exit status is 1 when there are findings, 2 on load/type errors,
// 0 on a clean tree. -json replaces the human output with a JSON report;
// -json-out writes the same JSON to a file while keeping the human output
// on stdout (the form CI uses to archive the report as an artifact).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"lotuseater/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("lotus-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the report as JSON on stdout instead of human-readable lines")
	jsonFile := fs.String("json-out", "", "also write the JSON report to this file")
	dir := fs.String("C", ".", "directory inside the module to lint")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	mod, err := analysis.LoadModule(*dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var pkgs []*analysis.Package
	for _, pkg := range mod.Packages() {
		if matchAny(patterns, mod.Path, pkg.Path) {
			pkgs = append(pkgs, pkg)
		}
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "lotus-lint: no packages match %v\n", patterns)
		return 2
	}
	res, err := analysis.RunAnalyzers(mod, pkgs, analysis.DefaultConfig(mod.Path))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *jsonFile != "" {
		if err := writeJSON(*jsonFile, res); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Fprintln(stdout, d)
		}
		fmt.Fprintf(stdout, "lotus-lint: %d package(s), %d finding(s), %d suppressed\n",
			res.Packages, len(res.Diagnostics), res.Suppressed)
	}
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}

func writeJSON(path string, res *analysis.Result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// matchAny reports whether importPath matches any of the go-style patterns,
// resolved against the module path: "./..." is the whole module, "./x/..."
// a subtree, "./x" or a full import path an exact package.
func matchAny(patterns []string, modPath, importPath string) bool {
	for _, p := range patterns {
		if matchPattern(p, modPath, importPath) {
			return true
		}
	}
	return false
}

func matchPattern(pattern, modPath, importPath string) bool {
	p := pattern
	if p == "." || p == "./..." {
		return true
	}
	if rest, ok := strings.CutPrefix(p, "./"); ok {
		p = modPath + "/" + rest
	}
	if sub, ok := strings.CutSuffix(p, "/..."); ok {
		return importPath == sub || strings.HasPrefix(importPath, sub+"/")
	}
	return importPath == p
}
