package analysis_test

import (
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"clustermarket/internal/analysis"
	"clustermarket/internal/analysis/allocfree"
	"clustermarket/internal/analysis/analysistest"
	"clustermarket/internal/analysis/lockdiscipline"
	"clustermarket/internal/analysis/maporder"
	"clustermarket/internal/analysis/replaypure"
)

// analyzers is the contract suite. A new analyzer joins the gate by
// being appended here.
var analyzers = []*analysis.Analyzer{
	maporder.Analyzer,
	replaypure.Analyzer,
	allocfree.Analyzer,
	lockdiscipline.Analyzer,
}

// module is the one load of the module's packages that the gates in
// this file share.
var module struct {
	once sync.Once
	pkgs []*analysis.Package
	err  error
}

func loadModule(t *testing.T) []*analysis.Package {
	t.Helper()
	module.once.Do(func() {
		// go test caches a pass keyed on the files and directories this
		// process opens, but go list reads the tree in a child process:
		// open every directory of the repository, benchmark/ included,
		// so that an added file or package reruns the test.
		module.err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
			if d != nil && d.IsDir() && d.Name() == ".git" {
				return filepath.SkipDir
			}
			return err
		})
		if module.err == nil {
			module.pkgs, module.err = analysis.Load("../..", "./...")
		}
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.pkgs
}

// TestContracts loads every package of the module and runs the
// contract analyzers over it; each finding is a failure.
func TestContracts(t *testing.T) {
	diags, err := analysis.RunAnalyzers(analyzers, loadModule(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestEveryFunctionHasAProgram fails on each function that neither
// marketd, marketsim nor the benchmark reaches, unless it is a test
// oracle that names its test. The benchmark is a module of
// its own: its package is loaded from source, and the root module's
// packages it imports are matched to the module's by full name. The
// analyzers are the lint, which only TestContracts runs.
func TestEveryFunctionHasAProgram(t *testing.T) {
	bench, err := analysis.Load("../../benchmark", ".")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Unreached(slices.Concat(loadModule(t), bench))
	if err != nil {
		t.Fatal(err)
	}
	lint := string(filepath.Separator) + filepath.Join("internal", "analysis") + string(filepath.Separator)
	for _, d := range diags {
		if !strings.Contains(d.Pos.Filename, lint) {
			t.Error(d)
		}
	}
}

// TestUnreachedFixture pins the gate on a fixture: an unreached
// function, a method reached only through an interface conversion, an
// oracle that names its test and one that names no test.
func TestUnreachedFixture(t *testing.T) {
	fixture, _, err := analysis.LoadFixture(analysistest.Dir("reach"), "clustermarket/internal/analysis/reachfixture")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Unreached([]*analysis.Package{fixture})
	if err != nil {
		t.Fatal(err)
	}
	analysistest.Match(t, fixture, diags)
}
