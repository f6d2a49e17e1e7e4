// Package analysis is the repo's static-analysis layer: a stdlib-only
// analyzer driver (go/parser + go/types with the source importer — no
// external dependencies) plus the project-specific analyzers that turn the
// README's determinism and hot-path rules into machine-checked law. The
// cmd/lotus-lint binary is a thin front end over this package.
package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one parsed, type-checked package of the module under analysis.
type Package struct {
	Path  string      // import path, e.g. lotuseater/internal/gossip
	Dir   string      // absolute directory
	Files []*ast.File // non-test files, build-tag filtered for this platform
	Pkg   *types.Package
	Info  *types.Info

	checked  bool
	checking bool // cycle detection during lazy type-checking
}

// Module is the whole module under analysis. Packages are parsed eagerly at
// load time but type-checked lazily (Check), so callers that only
// need a corner of the module don't pay for type-checking net/http by
// source.
type Module struct {
	Root string // directory containing go.mod
	Path string // module path from go.mod
	Fset *token.FileSet

	pkgs   []*Package
	byPath map[string]*Package
	src    map[string][]byte // filename -> source bytes, for directive parsing
	stdImp types.Importer    // source importer for out-of-module (stdlib) paths
}

// LoadModule locates go.mod at or above dir, parses every non-testdata
// package in the module (comments kept, build tags honored), and returns a
// Module ready for lazy type-checking. Test files are not loaded: the
// analyzers police simulation results, and tests are where nondeterminism
// (timing, t.TempDir, shuffled execution) is legitimate.
func LoadModule(dir string) (*Module, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	m := &Module{
		Root:   root,
		Path:   modPath,
		Fset:   token.NewFileSet(),
		byPath: make(map[string]*Package),
		src:    make(map[string][]byte),
	}
	m.stdImp = importer.ForCompiler(m.Fset, "source", nil)
	if err := m.walk(); err != nil {
		return nil, err
	}
	sort.Slice(m.pkgs, func(i, j int) bool { return m.pkgs[i].Path < m.pkgs[j].Path })
	return m, nil
}

// Packages returns every module package, sorted by import path. They are
// parsed but not necessarily type-checked yet; use Check.
func (m *Module) Packages() []*Package { return m.pkgs }

// Source returns the raw bytes of a loaded file (for directive parsing).
func (m *Module) Source(filename string) []byte { return m.src[filename] }

func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					p := strings.TrimSpace(rest)
					if unq, err := strconv.Unquote(p); err == nil {
						p = unq
					}
					return d, p, nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
	}
}

// walk discovers and parses every package directory under the module root,
// skipping testdata, vendor, and hidden directories.
func (m *Module) walk() error {
	return filepath.WalkDir(m.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != m.Root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(m.Root, path)
		if err != nil {
			return err
		}
		importPath := m.Path
		if rel != "." {
			importPath = m.Path + "/" + filepath.ToSlash(rel)
		}
		pkg, err := m.parseDir(path, importPath)
		if err != nil {
			return err
		}
		if pkg != nil {
			m.pkgs = append(m.pkgs, pkg)
			m.byPath[pkg.Path] = pkg
		}
		return nil
	})
}

// parseDir parses one directory as a package. A directory with no buildable
// non-test Go files yields (nil, nil).
func (m *Module) parseDir(dir, importPath string) (*Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	pkg := &Package{Path: importPath, Dir: dir}
	for _, f := range bp.GoFiles {
		filename := filepath.Join(dir, f)
		data, err := os.ReadFile(filename)
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(m.Fset, filename, data, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		m.src[filename] = data
		pkg.Files = append(pkg.Files, file)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// LoadDir parses and type-checks one extra directory (outside the normal
// walk — e.g. an analyzer-testdata package) as importPath, resolving its
// imports against the module. The package is registered so later loads can
// import it.
func (m *Module) LoadDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := m.parseDir(abs, importPath)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	m.pkgs = append(m.pkgs, pkg)
	m.byPath[pkg.Path] = pkg
	if err := m.Check(pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}

// Check type-checks pkg (and, recursively, its in-module dependencies).
// It is idempotent.
func (m *Module) Check(pkg *Package) error {
	if pkg.checked {
		return nil
	}
	if pkg.checking {
		return fmt.Errorf("analysis: import cycle through %s", pkg.Path)
	}
	pkg.checking = true
	defer func() { pkg.checking = false }()

	// Check in-module dependencies first so the importer below can serve
	// them from the map without re-entering the type checker.
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if dep := m.byPath[path]; dep != nil {
				if err := m.Check(dep); err != nil {
					return err
				}
			}
		}
	}

	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: (*moduleImporter)(m)}
	tpkg, err := conf.Check(pkg.Path, m.Fset, pkg.Files, pkg.Info)
	if err != nil {
		return fmt.Errorf("analysis: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Pkg = tpkg
	pkg.checked = true
	return nil
}

// moduleImporter serves in-module import paths from the module's own
// lazily-checked packages and delegates everything else (the standard
// library) to the source importer.
type moduleImporter Module

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	m := (*Module)(mi)
	if pkg := m.byPath[path]; pkg != nil {
		if err := m.Check(pkg); err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return m.stdImp.Import(path)
}
