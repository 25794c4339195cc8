package analysis_test

import (
	"io/fs"
	"path/filepath"
	"testing"

	"clustermarket/internal/analysis"
	"clustermarket/internal/analysis/allocfree"
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

// TestContracts loads every package of the module and runs the
// contract analyzers over it; each finding is a failure.
func TestContracts(t *testing.T) {
	// go test caches a pass keyed on the files and directories this
	// process opens, but go list reads the tree in a child process:
	// open every directory of the module so that an added file or
	// package reruns the test.
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(analyzers, pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}
