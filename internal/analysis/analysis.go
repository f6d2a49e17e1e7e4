package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
)

// Diagnostic is one finding: a position, the analyzer that produced it, and
// a message. String renders the canonical file:line:col: [analyzer] message
// form (file relative to root when possible).
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named rule. Run inspects a single package and reports
// findings through the pass; suppression, sorting, and output are the
// driver's job.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All is the analyzer suite, in reporting order.
var All = []*Analyzer{Detrand, MapRange, AllocFree}

// Config scopes the suite. SimPackages lists the import paths whose results
// are contractually a pure function of (spec, seed) — detrand and maprange
// apply only there; allocfree applies module-wide (it keys on explicit
// annotations).
type Config struct {
	SimPackages []string
}

// simPackageNames are the packages under internal/ whose code runs inside a
// replicate: everything between "the spec and seed go in" and "the
// observations come out". serve/cluster/cli sit outside the replicate
// boundary (they may log, time requests, shuffle work) and are policed by
// the parity and race suites instead.
var simPackageNames = []string{
	"gossip", "swarm", "scrip", "tokenmodel", "coding",
	"attack", "defense", "scenario", "sim", "adaptive", "metrics",
	"population", "graph", "bitset", "simrng",
}

// DefaultConfig returns the production scope for a module rooted at
// modPath: the fifteen simulation packages under internal/.
func DefaultConfig(modPath string) *Config {
	cfg := &Config{}
	for _, name := range simPackageNames {
		cfg.SimPackages = append(cfg.SimPackages, modPath+"/internal/"+name)
	}
	return cfg
}

// IsSim reports whether an import path is in the simulation scope.
func (c *Config) IsSim(path string) bool {
	for _, p := range c.SimPackages {
		if p == path {
			return true
		}
	}
	return false
}

// Pass is the per-package unit of work handed to each analyzer.
type Pass struct {
	Mod  *Module
	Pkg  *Package
	Cfg  *Config
	dirs map[*ast.File]*fileDirectives

	analyzer   string
	out        *[]Diagnostic
	suppressed *int
}

// Reportf records a finding at pos unless a //lotus:ignore for this
// analyzer covers the line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Mod.Fset.Position(pos)
	file := p.fileAt(pos)
	if file != nil && p.dirs[file].ignoredAt(position.Line, p.analyzer) {
		*p.suppressed++
		return
	}
	*p.out = append(*p.out, p.diag(p.analyzer, position, fmt.Sprintf(format, args...)))
}

func (p *Pass) diag(analyzer string, pos token.Position, msg string) Diagnostic {
	file := pos.Filename
	if rel, err := filepath.Rel(p.Mod.Root, file); err == nil && !filepath.IsAbs(rel) {
		file = filepath.ToSlash(rel)
	}
	return Diagnostic{
		Analyzer: analyzer,
		Pos:      pos,
		File:     file,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  msg,
	}
}

func (p *Pass) fileAt(pos token.Pos) *ast.File {
	for _, f := range p.Pkg.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// directivesFor returns the parsed //lotus: annotations of the file
// containing pos (never nil).
func (p *Pass) directivesFor(file *ast.File) *fileDirectives {
	return p.dirs[file]
}

// Result is a full run's outcome.
type Result struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	Suppressed  int          `json:"suppressed"` // findings silenced by //lotus:ignore
	Packages    int          `json:"packages"`
}

// RunAnalyzers type-checks and analyzes the given packages and returns the
// sorted findings. Malformed //lotus: directives are reported as
// diagnostics of the pseudo-analyzer "directive".
func RunAnalyzers(mod *Module, pkgs []*Package, cfg *Config) (*Result, error) {
	res := &Result{Packages: len(pkgs)}
	for _, pkg := range pkgs {
		if err := mod.Check(pkg); err != nil {
			return nil, err
		}
		pass := &Pass{
			Mod:        mod,
			Pkg:        pkg,
			Cfg:        cfg,
			dirs:       make(map[*ast.File]*fileDirectives),
			out:        &res.Diagnostics,
			suppressed: &res.Suppressed,
		}
		for _, f := range pkg.Files {
			filename := mod.Fset.Position(f.FileStart).Filename
			d := parseDirectives(mod.Fset, f, mod.Source(filename))
			pass.dirs[f] = d
			for _, bad := range d.malformed {
				res.Diagnostics = append(res.Diagnostics, pass.diag(bad.Analyzer, bad.Pos, bad.Message))
			}
		}
		for _, a := range All {
			pass.analyzer = a.Name
			a.Run(pass)
		}
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return res, nil
}
