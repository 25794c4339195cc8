// Package resource defines the resource model from Section II of the
// paper: a market with R resource pools, each pool being a (cluster,
// dimension) pair such as "CPUs in cluster r7". Quantities over the pools
// are represented as dense R-component vectors; positive components denote
// quantities demanded and negative components quantities offered, exactly
// as in the paper's bundle encoding.
package resource

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Dimension identifies one measurable resource type within a cluster.
type Dimension int

// The resource dimensions used throughout the paper's experiments
// (Section V: "each resource pool was taken as a cluster / resource type
// combination with the latter including CPU, RAM, and disk"). Network is
// included as an optional fourth dimension mentioned in Section IV.A.
const (
	CPU Dimension = iota
	RAM
	Disk
	Network
	numDimensions
)

// Dimensions lists the dimensions in canonical order.
var Dimensions = [...]Dimension{CPU, RAM, Disk, Network}

// StandardDimensions are the three dimensions used in the paper's
// experimental market.
var StandardDimensions = []Dimension{CPU, RAM, Disk}

func (d Dimension) String() string {
	switch d {
	case CPU:
		return "CPU"
	case RAM:
		return "RAM"
	case Disk:
		return "Disk"
	case Network:
		return "Network"
	default:
		return fmt.Sprintf("Dimension(%d)", int(d))
	}
}

// ParseDimension converts a case-insensitive dimension name into a
// Dimension value.
func ParseDimension(s string) (Dimension, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "cpu", "cores":
		return CPU, nil
	case "ram", "memory", "mem":
		return RAM, nil
	case "disk", "storage":
		return Disk, nil
	case "network", "net", "bandwidth":
		return Network, nil
	}
	return 0, fmt.Errorf("resource: unknown dimension %q", s)
}

// Pool identifies one divisible resource pool: a dimension within a
// cluster, e.g. {Cluster: "r7", Dim: CPU}.
type Pool struct {
	Cluster string
	Dim     Dimension
}

func (p Pool) String() string { return p.Cluster + "/" + p.Dim.String() }

// Registry assigns a stable dense index to every pool participating in a
// market. All vectors in a market share one registry so component i always
// refers to the same pool. The zero value is an empty registry ready to
// use.
type Registry struct {
	pools []Pool
	index map[Pool]int
	// clusters caches the by-cluster view of pools, so the per-tick
	// readers never scan the pools. It is derived on first use rather than
	// in Add, which keeps building a registry as cheap as it was; Add
	// drops it.
	clusters atomic.Pointer[clusterIndex]
}

// clusterIndex lists the distinct cluster names in first-seen order and,
// beside each, the indices of its pools, ascending, and its PoolRow.
type clusterIndex struct {
	names  []string
	pools  [][]int
	rows   []PoolRow
	byName map[string]int
}

// byCluster returns the cached cluster view, building it if Add has run
// since it was last used. Concurrent first readers may each build it;
// the results are identical and either may be kept.
func (r *Registry) byCluster() *clusterIndex {
	if ix := r.clusters.Load(); ix != nil {
		return ix
	}
	ix := &clusterIndex{byName: make(map[string]int)}
	for i, p := range r.pools {
		k, ok := ix.byName[p.Cluster]
		if !ok {
			k = len(ix.names)
			ix.byName[p.Cluster] = k
			ix.names = append(ix.names, p.Cluster)
			ix.pools = append(ix.pools, nil)
			ix.rows = append(ix.rows, noRow)
		}
		ix.pools[k] = append(ix.pools[k], i)
		for s, d := range StandardDimensions {
			if p.Dim == d {
				ix.rows[k][s] = int32(i)
			}
		}
	}
	r.clusters.Store(ix)
	return ix
}

// NewRegistry returns a registry pre-populated with the given pools, in
// order. Duplicate pools are registered once.
func NewRegistry(pools ...Pool) *Registry {
	r := &Registry{}
	for _, p := range pools {
		r.Add(p)
	}
	return r
}

// NewStandardRegistry builds the pool layout used in the paper's
// experiments: every cluster crossed with CPU, RAM, and Disk.
func NewStandardRegistry(clusters ...string) *Registry {
	r := &Registry{}
	for _, c := range clusters {
		for _, d := range StandardDimensions {
			r.Add(Pool{Cluster: c, Dim: d})
		}
	}
	return r
}

// Add registers a pool and returns its index. Registering an existing pool
// returns the existing index.
func (r *Registry) Add(p Pool) int {
	if r.index == nil {
		r.index = make(map[Pool]int)
	}
	if i, ok := r.index[p]; ok {
		return i
	}
	i := len(r.pools)
	r.pools = append(r.pools, p)
	r.index[p] = i
	r.clusters.Store(nil)
	return i
}

// Index returns the dense index for pool p. The boolean reports whether the
// pool is registered.
func (r *Registry) Index(p Pool) (int, bool) {
	i, ok := r.index[p]
	return i, ok
}

// PoolRow places one cluster's pools in a registry: the index of its pool
// of each of the StandardDimensions, in that order, −1 where the cluster
// has none. A hot path that resolves a cluster name to its row once can
// then price or book the cluster without hashing the name again.
type PoolRow [3]int32

// noRow is the PoolRow of a cluster with no standard-dimension pool.
var noRow = PoolRow{-1, -1, -1}

// Row returns the cluster's PoolRow; ok is false when the cluster has no
// pool of a standard dimension. It hashes the name once, in the cluster
// index, which the first lookup after an Add builds.
func (r *Registry) Row(cluster string) (row PoolRow, ok bool) {
	ix := r.byCluster()
	k, found := ix.byName[cluster]
	if !found {
		return noRow, false
	}
	return ix.rows[k], ix.rows[k] != noRow
}

// Pool returns the pool at index i.
func (r *Registry) Pool(i int) Pool { return r.pools[i] }

// Len returns R, the number of registered pools.
func (r *Registry) Len() int { return len(r.pools) }

// Clusters returns the distinct cluster names in first-seen order.
func (r *Registry) Clusters() []string {
	return append([]string(nil), r.byCluster().names...)
}

// ClusterPools returns a copy of the indices of all pools belonging to
// the cluster, ascending (registration order).
func (r *Registry) ClusterPools(cluster string) []int {
	ix := r.byCluster()
	k, ok := ix.byName[cluster]
	if !ok {
		return nil
	}
	return append([]int(nil), ix.pools[k]...)
}

// Zero returns a zero vector sized for this registry.
func (r *Registry) Zero() Vector { return make(Vector, len(r.pools)) }

// Format renders a non-zero vector against this registry as a sorted,
// human-readable list like "r1/CPU:+40 r1/RAM:+96".
func (r *Registry) Format(v Vector) string {
	var parts []string
	for i, q := range v {
		if q == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s:%+g", r.pools[i], q))
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "(empty)"
	}
	return strings.Join(parts, " ")
}
