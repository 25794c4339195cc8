package cluster

import (
	"math/rand"
	"strings"
	"testing"

	"clustermarket/internal/resource"
)

func newTestFleet(t *testing.T) *Fleet {
	t.Helper()
	f := NewFleet()
	for _, name := range []string{"r1", "r2"} {
		c := New(name, nil)
		c.AddMachines(4, Usage{CPU: 10, RAM: 20, Disk: 5})
		if err := f.AddCluster(c); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestFleetAddCluster(t *testing.T) {
	f := newTestFleet(t)
	if err := f.AddCluster(New("r1", nil)); err == nil {
		t.Error("duplicate cluster accepted")
	}
	names := f.ClusterNames()
	if len(names) != 2 || names[0] != "r1" || names[1] != "r2" {
		t.Errorf("ClusterNames = %v", names)
	}
	if f.Cluster("r1") == nil || f.Cluster("zz") != nil {
		t.Error("Cluster lookup wrong")
	}
}

func TestFleetVectors(t *testing.T) {
	f := newTestFleet(t)
	reg := f.Registry()
	if reg.Len() != 6 {
		t.Fatalf("registry len = %d", reg.Len())
	}
	if _, err := f.ScheduleTask("team", "r1", Usage{CPU: 10, RAM: 10, Disk: 1}); err != nil {
		t.Fatal(err)
	}

	capVec := f.CapacityVector(reg)
	i := reg.MustIndex(resource.Pool{Cluster: "r1", Dim: resource.CPU})
	if capVec[i] != 40 {
		t.Errorf("capacity r1/CPU = %v", capVec[i])
	}
	util := f.UtilizationVector(reg)
	if util[i] != 0.25 {
		t.Errorf("utilization r1/CPU = %v", util[i])
	}
	free := f.FreeVector(reg)
	if free[i] != 30 {
		t.Errorf("free r1/CPU = %v", free[i])
	}
	cost := f.CostVector(reg)
	if cost[i] != 1 {
		t.Errorf("cost r1/CPU = %v", cost[i])
	}
	// r2 untouched.
	j := reg.MustIndex(resource.Pool{Cluster: "r2", Dim: resource.CPU})
	if util[j] != 0 {
		t.Errorf("utilization r2/CPU = %v", util[j])
	}
}

func TestScheduleTaskErrors(t *testing.T) {
	f := newTestFleet(t)
	if _, err := f.ScheduleTask("t", "nope", Usage{CPU: 1}); err == nil {
		t.Error("unknown cluster accepted")
	}
	if _, err := f.ScheduleTask("t", "r1", Usage{CPU: 999}); err == nil {
		t.Error("oversized task accepted")
	}
}

func TestQuotaEnforcement(t *testing.T) {
	f := newTestFleet(t)
	f.EnforceQuotas = true

	// No quota: any placement fails.
	if _, err := f.ScheduleTask("team", "r1", Usage{CPU: 1}); err == nil || !strings.Contains(err.Error(), "quota") {
		t.Fatalf("quota not enforced: %v", err)
	}
	f.Quotas().Grant("team", "r1", Usage{CPU: 5, RAM: 5, Disk: 5})
	if _, err := f.ScheduleTask("team", "r1", Usage{CPU: 4, RAM: 4, Disk: 4}); err != nil {
		t.Fatalf("placement within quota failed: %v", err)
	}
	// Next task would exceed CPU quota.
	if _, err := f.ScheduleTask("team", "r1", Usage{CPU: 2}); err == nil {
		t.Fatal("quota overrun accepted")
	}
	// But fits in r2? No quota there either.
	if _, err := f.ScheduleTask("team", "r2", Usage{CPU: 2}); err == nil {
		t.Fatal("cross-cluster quota leak")
	}
}

func TestQuotaLedger(t *testing.T) {
	l := NewQuotaLedger()
	l.Grant("a", "r1", Usage{CPU: 10})
	l.Grant("a", "r1", Usage{CPU: -4, RAM: 2})
	g := l.Granted("a", "r1")
	if g.CPU != 6 || g.RAM != 2 {
		t.Errorf("Granted = %v", g)
	}
	// Clamping at zero.
	l.Grant("a", "r1", Usage{CPU: -100})
	if got := l.Granted("a", "r1"); got.CPU != 0 {
		t.Errorf("clamped = %v", got)
	}
	if got := l.Granted("nobody", "r1"); !got.IsZero() {
		t.Errorf("unknown team = %v", got)
	}
	l.Grant("b", "r1", Usage{Disk: 3})
	teams := l.Teams()
	if len(teams) != 2 || teams[0] != "a" || teams[1] != "b" {
		t.Errorf("Teams = %v", teams)
	}
}

func TestApplyAllocation(t *testing.T) {
	f := newTestFleet(t)
	reg := f.Registry()
	pools := []int32{
		int32(reg.MustIndex(resource.Pool{Cluster: "r1", Dim: resource.CPU})),
		int32(reg.MustIndex(resource.Pool{Cluster: "r1", Dim: resource.RAM})),
		int32(reg.MustIndex(resource.Pool{Cluster: "r2", Dim: resource.Disk})),
	}

	l := f.Quotas()
	l.Grant("team", "r2", Usage{Disk: 5})
	l.ApplyAllocation(reg, "team", pools, []float64{8, 16, -2})

	if g := l.Granted("team", "r1"); g.CPU != 8 || g.RAM != 16 {
		t.Errorf("r1 quota = %v", g)
	}
	if g := l.Granted("team", "r2"); g.Disk != 3 {
		t.Errorf("r2 quota = %v", g)
	}
}

func TestFillToUtilization(t *testing.T) {
	f := newTestFleet(t)
	rng := rand.New(rand.NewSource(42))
	if err := f.FillToUtilization(rng, "r1", Usage{CPU: 0.6, RAM: 0.4, Disk: 0.3}); err != nil {
		t.Fatal(err)
	}
	u := f.Cluster("r1").Utilization()
	if u.CPU < 0.6 {
		t.Errorf("CPU utilization = %v, want >= 0.6", u.CPU)
	}
	if u.RAM < 0.4 {
		t.Errorf("RAM utilization = %v, want >= 0.4", u.RAM)
	}
	if u.Disk < 0.3 {
		t.Errorf("Disk utilization = %v, want >= 0.3", u.Disk)
	}
	// Capacity is never exceeded.
	if u.CPU > 1 || u.RAM > 1 || u.Disk > 1 {
		t.Errorf("overfilled: %v", u)
	}
	// Unknown cluster errors.
	if err := f.FillToUtilization(rng, "zz", Usage{}); err == nil {
		t.Error("unknown cluster accepted")
	}
}
