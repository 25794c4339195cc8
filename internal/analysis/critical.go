package analysis

import "strings"

// determinismCritical lists the packages whose behavior must be
// bit-reproducible: they sit on the scenario-fingerprint or
// journal-replay paths, where map-iteration order, wall-clock reads,
// or scheduling nondeterminism become divergent fingerprints. PR 5's
// three map-order bugs all lived in these packages.
var determinismCritical = []string{
	"clustermarket/internal/cluster",
	"clustermarket/internal/core",
	"clustermarket/internal/market",
	"clustermarket/internal/federation",
	"clustermarket/internal/scenario",
	"clustermarket/internal/sim",
	"clustermarket/internal/invariant",
	"clustermarket/internal/journal",
}

// DeterminismCritical reports whether importPath is one of the
// packages held to the bit-reproducibility contract. Used as the
// Packages filter of order- and purity-sensitive analyzers.
func DeterminismCritical(importPath string) bool {
	for _, p := range determinismCritical {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}
