package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"clustermarket/internal/resource"
)

// Fleet is the planet-wide collection of clusters plus the per-team quota
// ledger the market settles into. It is the bridge between the economic
// layer (pool-indexed vectors) and the physical layer (machines).
type Fleet struct {
	clusters map[string]*Cluster
	order    []string
	quotas   *QuotaLedger
	// EnforceQuotas makes ScheduleTask reject placements that would
	// exceed the team's granted quota in any dimension.
	EnforceQuotas bool
	nextTask      int
}

// NewFleet returns an empty fleet.
func NewFleet() *Fleet {
	return &Fleet{
		clusters: make(map[string]*Cluster),
		quotas:   NewQuotaLedger(),
	}
}

// AddCluster registers a cluster; duplicate names are rejected.
func (f *Fleet) AddCluster(c *Cluster) error {
	if _, ok := f.clusters[c.Name]; ok {
		return fmt.Errorf("cluster: duplicate cluster %q", c.Name)
	}
	f.clusters[c.Name] = c
	f.order = append(f.order, c.Name)
	return nil
}

// Cluster returns the named cluster, or nil.
func (f *Fleet) Cluster(name string) *Cluster { return f.clusters[name] }

// ClusterNames returns the cluster names in registration order.
func (f *Fleet) ClusterNames() []string {
	out := make([]string, len(f.order))
	copy(out, f.order)
	return out
}

// Quotas exposes the fleet's quota ledger.
func (f *Fleet) Quotas() *QuotaLedger { return f.quotas }

// Registry builds the standard pool registry (every cluster × CPU, RAM,
// Disk) for this fleet.
func (f *Fleet) Registry() *resource.Registry {
	return resource.NewStandardRegistry(f.order...)
}

// UtilizationVector returns ψ(r) for every pool in reg, pulling from the
// owning cluster's live utilization. Pools for unknown clusters read 0.
func (f *Fleet) UtilizationVector(reg *resource.Registry) resource.Vector {
	out := reg.Zero()
	for i := 0; i < reg.Len(); i++ {
		p := reg.Pool(i)
		if c, ok := f.clusters[p.Cluster]; ok {
			out[i] = c.Utilization().Get(p.Dim)
		}
	}
	return out
}

// CapacityVector returns total capacity per pool.
func (f *Fleet) CapacityVector(reg *resource.Registry) resource.Vector {
	out := reg.Zero()
	for i := 0; i < reg.Len(); i++ {
		p := reg.Pool(i)
		if c, ok := f.clusters[p.Cluster]; ok {
			out[i] = c.Capacity().Get(p.Dim)
		}
	}
	return out
}

// FreeVector returns uncommitted capacity per pool.
func (f *Fleet) FreeVector(reg *resource.Registry) resource.Vector {
	out := reg.Zero()
	for i := 0; i < reg.Len(); i++ {
		p := reg.Pool(i)
		if c, ok := f.clusters[p.Cluster]; ok {
			out[i] = c.Capacity().Get(p.Dim) - c.Used().Get(p.Dim)
		}
	}
	return out
}

// CostVector returns the operator's per-unit cost c(r) per pool.
func (f *Fleet) CostVector(reg *resource.Registry) resource.Vector {
	out := reg.Zero()
	for i := 0; i < reg.Len(); i++ {
		p := reg.Pool(i)
		if c, ok := f.clusters[p.Cluster]; ok {
			out[i] = c.UnitCost.Get(p.Dim)
		}
	}
	return out
}

// ScheduleTask places a task for a team in the named cluster, enforcing
// quotas when enabled. The generated task ID is returned.
func (f *Fleet) ScheduleTask(team, clusterName string, req Usage) (string, error) {
	c, ok := f.clusters[clusterName]
	if !ok {
		return "", fmt.Errorf("cluster: unknown cluster %q", clusterName)
	}
	if f.EnforceQuotas {
		used := c.TeamUsage()[team]
		want := used.Add(req)
		granted := f.quotas.Granted(team, clusterName)
		if !want.FitsWithin(granted) {
			return "", fmt.Errorf("cluster: team %q quota exceeded in %s: want %v, granted %v",
				team, clusterName, want, granted)
		}
	}
	id := fmt.Sprintf("task-%d", f.nextTask)
	f.nextTask++
	if err := c.Place(Task{ID: id, Team: team, Req: req}); err != nil {
		return "", err
	}
	return id, nil
}

// TaskSeq returns the fleet's task-ID counter: the next generated task
// will be "task-<TaskSeq>".
func (f *Fleet) TaskSeq() int { return f.nextTask }

// SetTaskSeq sets the task-ID counter — the snapshot-restore path uses
// it so a recovered fleet resumes generating exactly the IDs the
// original would have.
func (f *Fleet) SetTaskSeq(n int) { f.nextTask = n }

// PlaceAllocationChunked schedules the positive part of a settled
// allocation — given sparse, as the winning bundle's (pool, quantity)
// pairs in ascending pool order — onto the fleet as machine-sized chunks.
// Exchange.PlaceOrder is its one caller, so every simulated world places
// won demand alike. Clusters are visited in sorted
// name order so placement, and therefore future utilization and reserve
// prices, is a deterministic function of the allocation. onPlace is
// invoked for every scheduled task (so callers can evict later);
// scheduling stops per cluster at the first failure (the cluster is
// genuinely full).
func (f *Fleet) PlaceAllocationChunked(reg *resource.Registry, team string, pools []int32, qty []float64, onPlace func(clusterName, taskID string)) {
	perCluster := make(map[string]Usage)
	for k, q := range qty {
		if q <= 0 {
			continue
		}
		p := reg.Pool(int(pools[k]))
		u := perCluster[p.Cluster]
		perCluster[p.Cluster] = u.Set(p.Dim, u.Get(p.Dim)+q)
	}
	names := make([]string, 0, len(perCluster))
	for cn := range perCluster {
		names = append(names, cn)
	}
	sort.Strings(names)
	chunk := Usage{CPU: 8, RAM: 32, Disk: 5}
	clamp := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return x
	}
	for _, cn := range names {
		total := perCluster[cn]
		for i := 0; i < 10000 && !total.IsZero(); i++ {
			req := total
			if req.CPU > chunk.CPU {
				req.CPU = chunk.CPU
			}
			if req.RAM > chunk.RAM {
				req.RAM = chunk.RAM
			}
			if req.Disk > chunk.Disk {
				req.Disk = chunk.Disk
			}
			id, err := f.ScheduleTask(team, cn, req)
			if err != nil {
				break
			}
			onPlace(cn, id)
			total = total.Sub(req)
			total = Usage{CPU: clamp(total.CPU), RAM: clamp(total.RAM), Disk: clamp(total.Disk)}
		}
	}
}

// FillToUtilization packs synthetic background tasks into the cluster
// until every dimension reaches at least the target fraction (or no task
// fits). It is how experiments establish the skewed pre-auction loads the
// paper's Figures 6 and 7 start from. Task shapes are drawn from rng.
func (f *Fleet) FillToUtilization(rng *rand.Rand, clusterName string, target Usage) error {
	c, ok := f.clusters[clusterName]
	if !ok {
		return fmt.Errorf("cluster: unknown cluster %q", clusterName)
	}
	for i := 0; i < 1_000_000; i++ {
		u := c.Utilization()
		need := Usage{
			CPU:  target.CPU - u.CPU,
			RAM:  target.RAM - u.RAM,
			Disk: target.Disk - u.Disk,
		}
		if need.CPU <= 0 && need.RAM <= 0 && need.Disk <= 0 {
			return nil
		}
		req := Usage{}
		if need.CPU > 0 {
			req.CPU = 1 + float64(rng.Float64()*3) // rounded before the add (make fma-check)
		}
		if need.RAM > 0 {
			req.RAM = 2 + float64(rng.Float64()*6)
		}
		if need.Disk > 0 {
			req.Disk = 0.5 + float64(rng.Float64()*1.5)
		}
		if req.IsZero() {
			return nil
		}
		if _, err := f.ScheduleTask("background", clusterName, req); err != nil {
			// The packing is full in some dimension; good enough.
			return nil
		}
	}
	return fmt.Errorf("cluster: FillToUtilization(%s) did not terminate", clusterName)
}

// QuotaLedger tracks granted quota per (team, cluster). Grants are
// per-dimension Usage values; trades from auction settlement adjust them.
// The ledger is safe for concurrent use: auction settlement writes grants
// while schedulers and application code read them.
type QuotaLedger struct {
	mu     sync.RWMutex
	grants map[string]map[string]Usage // team → cluster → quota
}

// NewQuotaLedger returns an empty ledger.
func NewQuotaLedger() *QuotaLedger {
	return &QuotaLedger{grants: make(map[string]map[string]Usage)}
}

// Grant adds (or, with negative deltas, removes) quota. The resulting
// quota is clamped at zero per dimension.
func (l *QuotaLedger) Grant(team, cluster string, delta Usage) {
	l.mu.Lock()
	defer l.mu.Unlock()
	byCluster, ok := l.grants[team]
	if !ok {
		byCluster = make(map[string]Usage)
		l.grants[team] = byCluster
	}
	g := byCluster[cluster].Add(delta)
	if g.CPU < 0 {
		g.CPU = 0
	}
	if g.RAM < 0 {
		g.RAM = 0
	}
	if g.Disk < 0 {
		g.Disk = 0
	}
	byCluster[cluster] = g
}

// Granted returns the team's quota in the cluster (zero Usage when none).
func (l *QuotaLedger) Granted(team, cluster string) Usage {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.grants[team][cluster]
}

// GrantRow is one (team, cluster, quota) entry of the ledger.
type GrantRow struct {
	Team    string
	Cluster string
	Quota   Usage
}

// Grants returns every grant as rows sorted by team then cluster — the
// deterministic enumeration snapshots persist.
func (l *QuotaLedger) Grants() []GrantRow {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []GrantRow
	//marketlint:orderfree collect-then-sort: the rows are sorted by team then cluster below
	for team, byCluster := range l.grants {
		//marketlint:orderfree collect-then-sort, as above
		for cl, q := range byCluster {
			out = append(out, GrantRow{Team: team, Cluster: cl, Quota: q})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Team != out[j].Team {
			return out[i].Team < out[j].Team
		}
		return out[i].Cluster < out[j].Cluster
	})
	return out
}

// ApplyAllocation translates a settled auction allocation — given sparse,
// as the winning bundle's (pool, quantity) pairs — into quota adjustments:
// positive components grant quota, negative components (sold resources)
// remove it.
func (l *QuotaLedger) ApplyAllocation(reg *resource.Registry, team string, pools []int32, qty []float64) {
	for k, q := range qty {
		if q == 0 {
			continue
		}
		p := reg.Pool(int(pools[k]))
		var delta Usage
		delta = delta.Set(p.Dim, q)
		l.Grant(team, p.Cluster, delta)
	}
}
