package maporder_test

import (
	"testing"

	"clustermarket/internal/analysis"
	"clustermarket/internal/analysis/analysistest"
	"clustermarket/internal/analysis/maporder"
)

// The fixture is checked under a determinism-critical import path so
// the analyzer's Packages filter engages exactly as it does in CI.
func TestMaporder(t *testing.T) {
	analysistest.Run(t, analysistest.Dir("maporder"), "clustermarket/internal/scenario",
		[]*analysis.Analyzer{maporder.Analyzer})
}
