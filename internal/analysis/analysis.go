// Package analysis is a small, dependency-free static-analysis
// framework in the spirit of golang.org/x/tools/go/analysis, sized to
// the repo's four contract analyzers. It is built on the standard
// library alone: `go list -export` supplies export data, go/parser and
// go/types load each package (load.go), and RunAnalyzers runs the
// analyzers over the loaded packages. The contracts test in this
// directory runs them over the whole module inside `go test ./...`, and
// the program gate (reach_test.go) shares its load.
//
// An Analyzer inspects one type-checked package at a time and reports
// diagnostics. Annotations carry intent across package boundaries: a
// Pass can ask whether any loaded function, in its own package or
// another, carries a given annotation (FuncAnnotated).
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, e.g. "maporder".
	Name string
	// Packages, when non-nil, restricts the analyzer to import paths
	// for which it returns true.
	Packages func(importPath string) bool
	// Run performs the analysis, reporting findings via pass.Reportf.
	Run func(*Pass) error
}

// A Pass provides one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
	cmaps map[*ast.File]ast.CommentMap
	funcs map[string][]Annotation
}

// A Diagnostic is one reported finding, with a resolved position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string

	pos token.Pos
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos. Findings suppressed by a
// `//marketlint:allow <analyzer> <reason>` annotation on the enclosing
// statement or declaration are dropped by the driver, not here — the
// analyzer itself stays suppression-oblivious.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		pos:      pos,
	})
}

// FileFor returns the *ast.File whose extent contains pos, or nil.
func (p *Pass) FileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// commentMap returns (building lazily) the comment map for file.
func (p *Pass) commentMap(file *ast.File) ast.CommentMap {
	if p.cmaps == nil {
		p.cmaps = make(map[*ast.File]ast.CommentMap)
	}
	cm, ok := p.cmaps[file]
	if !ok {
		cm = ast.NewCommentMap(p.Fset, file, file.Comments)
		p.cmaps[file] = cm
	}
	return cm
}

// RunAnalyzers executes each analyzer over each package in pkgs and
// returns the combined findings sorted by position. Findings in
// _test.go files are dropped (test code may range maps, allocate, and
// sleep at will), as are findings suppressed by a marketlint:allow
// annotation. Analyzer package filters are applied against each
// package's path. The functions of deps are not analyzed, but their
// annotations are known to FuncAnnotated, as are those of pkgs.
func RunAnalyzers(analyzers []*Analyzer, pkgs, deps []*Package) ([]Diagnostic, error) {
	funcs := map[string][]Annotation{}
	for _, pkg := range slices.Concat(pkgs, deps) {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					funcs[fn.FullName()] = parseAnnotations(fd.Doc)
				}
			}
		}
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Packages != nil && !a.Packages(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				funcs:     funcs,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", pkg.Path, a.Name, err)
			}
			for _, d := range pass.diags {
				if strings.HasSuffix(d.Pos.Filename, "_test.go") {
					continue
				}
				if pass.suppressed(d) {
					continue
				}
				all = append(all, d)
			}
		}
	}
	slices.SortFunc(all, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line), cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Message, b.Message))
	})
	return all, nil
}
