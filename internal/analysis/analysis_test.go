package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches a golden expectation: // want `regexp`
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// TestAnalyzerGolden runs the full suite over each analyzer's testdata
// package and matches the reported diagnostics against the // want
// expectations embedded in the sources, line by line: every want must be
// matched by exactly one diagnostic on its line, and every line without a
// want must stay silent (this is what pins the annotated-safe false-positive
// cases). Suppression counts pin the //lotus:ignore paths.
func TestAnalyzerGolden(t *testing.T) {
	mod, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name           string
		analyzer       string // the analyzer this package exercises
		wantSuppressed int    // //lotus:ignore hits expected in the package
	}{
		{"detrand_a", "detrand", 2},
		{"maprange_a", "maprange", 1},
		{"allocfree_a", "allocfree", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			importPath := mod.Path + "/internal/analysis/testdata/src/" + tc.name
			pkg, err := mod.LoadDir(filepath.Join("testdata", "src", tc.name), importPath)
			if err != nil {
				t.Fatal(err)
			}
			// The testdata package plays a simulation package so that
			// detrand/maprange are in scope for it.
			cfg := &Config{SimPackages: []string{importPath}}
			res, err := RunAnalyzers(mod, []*Package{pkg}, cfg)
			if err != nil {
				t.Fatal(err)
			}

			wants := collectWants(t, mod, pkg) // file -> line -> pending regexps
			sawAnalyzer := false
			for _, d := range res.Diagnostics {
				if d.Analyzer == tc.analyzer {
					sawAnalyzer = true
				}
				ws := wants[d.File][d.Line]
				matched := -1
				for i, w := range ws {
					if w != nil && w.MatchString(d.Message) {
						matched = i
						break
					}
				}
				if matched < 0 {
					t.Errorf("unexpected diagnostic %s", d)
					continue
				}
				ws[matched] = nil // each want matches exactly one diagnostic
			}
			for file, lines := range wants {
				for line, ws := range lines {
					for _, w := range ws {
						if w != nil {
							t.Errorf("%s:%d: no diagnostic matched want %q", file, line, w)
						}
					}
				}
			}
			if !sawAnalyzer {
				t.Errorf("no %s diagnostics reported; lotus-lint would exit zero on this testdata", tc.analyzer)
			}
			if res.Suppressed != tc.wantSuppressed {
				t.Errorf("suppressed = %d, want %d", res.Suppressed, tc.wantSuppressed)
			}
		})
	}
}

// collectWants scans a package's raw sources for // want expectations, keyed
// the way diagnostics render file paths (slash-relative to the module root).
func collectWants(t *testing.T, mod *Module, pkg *Package) map[string]map[int][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string]map[int][]*regexp.Regexp)
	for _, f := range pkg.Files {
		filename := mod.Fset.Position(f.FileStart).Filename
		rel, err := filepath.Rel(mod.Root, filename)
		if err != nil {
			t.Fatal(err)
		}
		key := filepath.ToSlash(rel)
		for i, text := range strings.Split(string(mod.Source(filename)), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", key, i+1, m[1], err)
				}
				if wants[key] == nil {
					wants[key] = make(map[int][]*regexp.Regexp)
				}
				wants[key][i+1] = append(wants[key][i+1], re)
			}
		}
	}
	return wants
}
