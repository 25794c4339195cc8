package federation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/resource"
)

// TestLegCostRowsMatchNames is legCost's oracle: the router prices legs
// from pool rows resolved once, and must price them bit for bit as the
// name-keyed lookup it replaced — over registries that list dimensions
// out of standard order, omit a dimension on some cluster, carry a
// non-standard one, or hold a cluster with no standard pool at all, and
// over quotes shorter than the registry.
func TestLegCostRowsMatchNames(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dims := []resource.Dimension{resource.Disk, resource.CPU, resource.Network, resource.RAM}
	for regionN := 0; regionN < 8; regionN++ {
		reg := &resource.Registry{}
		var names []string
		for c := 0; c < 5; c++ {
			names = append(names, fmt.Sprintf("g%d-c%d", regionN, c))
		}
		// Pools in a shuffled order, each cluster missing a random subset;
		// the last cluster keeps only Network, no standard dimension.
		var pools []resource.Pool
		for c, cl := range names {
			for _, d := range dims {
				if c == len(names)-1 && d != resource.Network || rng.Intn(4) == 0 {
					continue
				}
				pools = append(pools, resource.Pool{Cluster: cl, Dim: d})
			}
		}
		rng.Shuffle(len(pools), func(i, j int) { pools[i], pools[j] = pools[j], pools[i] })
		for _, p := range pools {
			reg.Add(p)
		}
		rows := make([]resource.PoolRow, len(names))
		for c, cl := range names {
			rows[c], _ = reg.Row(cl)
		}

		for trial := 0; trial < 200; trial++ {
			prices := make([]float64, reg.Len()-rng.Intn(3))
			for i := range prices {
				prices[i] = rng.ExpFloat64() * 10
			}
			q := Quote{Prices: prices}
			cover := cluster.Usage{CPU: rng.Float64() * 8, RAM: rng.Float64() * 32, Disk: rng.Float64()}
			var clusters []uint32
			var leg []string
			for _, c := range rng.Perm(len(names))[:1+rng.Intn(len(names))] {
				clusters, leg = append(clusters, uint32(c)), append(leg, names[c])
			}
			got, want := legCost(q, cover, clusters, rows), nameCost(reg, q, cover, leg)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("registry %v, leg %v: row-priced %v, name-priced %v", reg, leg, got, want)
			}
		}
	}
}

// nameCost is legCost as the router computed it before pool rows: every
// cluster's pools looked up by name in the registry.
func nameCost(reg *resource.Registry, q Quote, cover cluster.Usage, clusters []string) float64 {
	best := -1.0
	for _, cl := range clusters {
		cost, found := 0.0, false
		for _, d := range resource.StandardDimensions {
			if i, ok := reg.Index(resource.Pool{Cluster: cl, Dim: d}); ok && i < len(q.Prices) {
				cost += cover.Get(d) * q.Prices[i]
				found = true
			}
		}
		if found && (best < 0 || cost < best) {
			best = cost
		}
	}
	if best < 0 {
		return inf
	}
	return best
}
