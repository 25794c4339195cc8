// Package analysistest is the golden-test harness for the contract
// analyzers: it loads a fixture package under testdata/src with
// analysis.LoadFixture, runs the analyzers over it, and compares every
// diagnostic against the fixture's `// want "regexp"` comments.
//
// Expectation grammar: a line comment anywhere on the offending line
// of the form
//
//	// want "first regexp" "second regexp"
//
// declares that the analyzers must report at least one diagnostic on
// that line matching each regexp. Diagnostics on lines with no want
// comment — and want regexps matched by no diagnostic — fail the test.
//
// Fixtures may import module packages; the analyzers know those
// packages' annotations as they do in the contracts test.
package analysistest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"clustermarket/internal/analysis"
)

// wantRE extracts the quoted regexps of a want comment.
var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one want regexp anchored to a fixture line.
type expectation struct {
	file    string // base name
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run analyzes the fixture package in dir as importPath and enforces
// its want comments. importPath matters: analyzers with a Packages
// filter (maporder, replaypure) only fire when it matches a
// determinism-critical path, so fixtures pass a real repo path.
func Run(t *testing.T, dir, importPath string, analyzers []*analysis.Analyzer) {
	t.Helper()

	fixture, deps, err := analysis.LoadFixture(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := analysis.RunAnalyzers(analyzers, []*analysis.Package{fixture}, deps)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	Match(t, fixture, diags)
}

// Match enforces the fixture's want comments against diags.
func Match(t *testing.T, fixture *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, fixture.Fset, fixture.Files)

	// Set-match per line: every diagnostic needs a matching want on its
	// line; every want needs a matching diagnostic.
	for _, d := range diags {
		file, line := filepath.Base(d.Pos.Filename), d.Pos.Line
		hit := false
		for i := range wants {
			w := &wants[i]
			if w.file == file && w.line == line && w.re.MatchString(d.Message) {
				w.matched = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s", file, line, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

// collectWants parses the want comments of every fixture file.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []expectation {
	t.Helper()
	var wants []expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				ms := wantRE.FindAllStringSubmatch(rest, -1)
				if len(ms) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, m := range ms {
					// Unquote first so fixtures write Go-escaped regexps
					// ("\\(" means a literal paren).
					pat, err := strconv.Unquote(m[0])
					if err != nil {
						t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, m[0], err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, expectation{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   re,
					})
				}
			}
		}
	}
	return wants
}

// Dir returns the conventional fixture directory testdata/src/<name>.
func Dir(name string) string {
	return filepath.Join("testdata", "src", name)
}
