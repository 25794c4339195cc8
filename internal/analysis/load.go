package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// A Package is one parsed and type-checked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TestFiles are the paths of the package's _test.go files, which
	// are not parsed into Files.
	TestFiles []string
}

// listed is the part of a `go list -json` record the loader reads.
type listed struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	Module       *struct{ Main bool }
}

// Load lists patterns with `go list -export -deps`, run in dir, and
// returns every listed package of dir's module, parsed from source
// (test files excluded) and type-checked against the compiler's export
// data for its imports; another module's packages, the standard
// library's among them, are known by their export data alone.
func Load(dir string, patterns ...string) ([]*Package, error) {
	pkgs, _, err := load(token.NewFileSet(), dir, patterns)
	return pkgs, err
}

// LoadFixture parses the .go files in dir and type-checks them as
// package importPath, the way Load checks a listed package: its
// _test.go files are only its TestFiles. It also returns the module's
// packages the fixture imports, loaded as Load loads them, so their
// functions' annotations are known.
func LoadFixture(dir, importPath string) (fixture *Package, deps []*Package, err error) {
	fset := token.NewFileSet()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, nil, err
	}
	var tests []string
	names = slices.DeleteFunc(names, func(name string) bool {
		if strings.HasSuffix(name, "_test.go") {
			tests = append(tests, name)
			return true
		}
		return false
	})
	files, err := parseFiles(fset, names)
	if err != nil {
		return nil, nil, err
	}
	var imports []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			imports = append(imports, path)
		}
	}
	deps, imp, err := load(fset, dir, imports)
	if err != nil {
		return nil, nil, err
	}
	if fixture, err = check(fset, importPath, files, imp); err != nil {
		return nil, nil, err
	}
	fixture.TestFiles = tests
	return fixture, deps, nil
}

// load runs `go list` over patterns and checks every non-standard
// package it lists. -deps lists a package after its imports, so their
// export data is known by then; the returned importer serves it.
func load(fset *token.FileSet, dir string, patterns []string) ([]*Package, types.Importer, error) {
	exports := map[string]string{}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	cmd := exec.Command("go", append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Export,Module"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp listed
		if err := dec.Decode(&lp); err != nil {
			return nil, nil, fmt.Errorf("go list: %v", err)
		}
		exports[lp.ImportPath] = lp.Export
		if lp.Module == nil || !lp.Module.Main {
			continue
		}
		in := func(names []string) []string {
			paths := make([]string, len(names))
			for i, name := range names {
				paths[i] = filepath.Join(lp.Dir, name)
			}
			return paths
		}
		files, err := parseFiles(fset, in(lp.GoFiles))
		if err != nil {
			return nil, nil, err
		}
		pkg, err := check(fset, lp.ImportPath, files, imp)
		if err != nil {
			return nil, nil, err
		}
		pkg.TestFiles = in(slices.Concat(lp.TestGoFiles, lp.XTestGoFiles))
		pkgs = append(pkgs, pkg)
	}
	return pkgs, imp, nil
}

func parseFiles(fset *token.FileSet, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as package path, importing through imp.
func check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: pkg, Info: info}, nil
}
