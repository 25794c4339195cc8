package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"clustermarket/internal/resource"
)

func TestUsageArithmetic(t *testing.T) {
	a := Usage{CPU: 1, RAM: 2, Disk: 3}
	b := Usage{CPU: 4, RAM: 5, Disk: 6}
	if got := a.Add(b); got != (Usage{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Usage{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Usage{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if !a.FitsWithin(b) || b.FitsWithin(a) {
		t.Error("FitsWithin wrong")
	}
	if !(Usage{}).IsZero() || a.IsZero() {
		t.Error("IsZero wrong")
	}
	if !a.NonNegative() || (Usage{CPU: -1}).NonNegative() {
		t.Error("NonNegative wrong")
	}
}

func TestUsageGetSet(t *testing.T) {
	u := Usage{CPU: 1, RAM: 2, Disk: 3}
	if u.Get(resource.CPU) != 1 || u.Get(resource.RAM) != 2 || u.Get(resource.Disk) != 3 {
		t.Error("Get wrong")
	}
	if u.Get(resource.Network) != 0 {
		t.Error("Network should read 0")
	}
	v := u.Set(resource.RAM, 9)
	if v.RAM != 9 || u.RAM != 2 {
		t.Error("Set must not mutate the receiver")
	}
	if w := u.Set(resource.Network, 5); w != u {
		t.Error("Set(Network) should be a no-op")
	}
}

func TestMachinePlaceRemove(t *testing.T) {
	m := NewMachine(0, Usage{CPU: 10, RAM: 20, Disk: 5})
	task := Task{ID: "t1", Team: "a", Req: Usage{CPU: 4, RAM: 8, Disk: 1}}
	if !m.Fits(task.Req) {
		t.Fatal("task should fit")
	}
	m.place(task)
	if m.Used() != task.Req || m.TaskCount() != 1 {
		t.Errorf("Used = %v, count = %d", m.Used(), m.TaskCount())
	}
	if m.Fits(Usage{CPU: 7}) {
		t.Error("overcommit accepted")
	}
	if !m.remove("t1") || m.remove("t1") {
		t.Error("remove semantics wrong")
	}
	if !m.Used().IsZero() {
		t.Errorf("Used after remove = %v", m.Used())
	}
}

func TestClusterPlaceEvict(t *testing.T) {
	c := New("r1", nil)
	c.AddMachines(2, Usage{CPU: 10, RAM: 10, Disk: 10})

	if err := c.Place(Task{ID: "a", Team: "x", Req: Usage{CPU: 6, RAM: 6, Disk: 6}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Place(Task{ID: "b", Team: "x", Req: Usage{CPU: 6, RAM: 6, Disk: 6}}); err != nil {
		t.Fatal(err)
	}
	// Third 6-unit task fits nowhere.
	err := c.Place(Task{ID: "c", Team: "x", Req: Usage{CPU: 6, RAM: 6, Disk: 6}})
	if !errors.Is(err, ErrNoFit) {
		t.Fatalf("err = %v, want ErrNoFit", err)
	}
	// Duplicate IDs are rejected.
	if err := c.Place(Task{ID: "a", Team: "x", Req: Usage{CPU: 1}}); !errors.Is(err, ErrDuplicateTask) {
		t.Fatalf("dup err = %v", err)
	}
	// Negative requirements are rejected.
	if err := c.Place(Task{ID: "neg", Team: "x", Req: Usage{CPU: -1}}); err == nil {
		t.Fatal("negative req accepted")
	}
	if c.TaskCount() != 2 {
		t.Errorf("TaskCount = %d", c.TaskCount())
	}
	if !c.Evict("a") || c.Evict("a") {
		t.Error("Evict semantics wrong")
	}
}

func TestClusterUtilization(t *testing.T) {
	c := New("r1", nil)
	c.AddMachines(4, Usage{CPU: 10, RAM: 10, Disk: 10})
	if err := c.Place(Task{ID: "t", Team: "x", Req: Usage{CPU: 20, RAM: 10, Disk: 0}}); !errors.Is(err, ErrNoFit) {
		t.Fatalf("oversized task: %v", err)
	}
	if err := c.Place(Task{ID: "t", Team: "x", Req: Usage{CPU: 10, RAM: 5, Disk: 0}}); err != nil {
		t.Fatal(err)
	}
	u := c.Utilization()
	if u.CPU != 0.25 || u.RAM != 0.125 || u.Disk != 0 {
		t.Errorf("Utilization = %v", u)
	}
	if got := c.Capacity(); got != (Usage{40, 40, 40}) {
		t.Errorf("Capacity = %v", got)
	}
}

func TestEmptyClusterMetrics(t *testing.T) {
	c := New("empty", nil)
	if u := c.Utilization(); !u.IsZero() {
		t.Errorf("Utilization = %v", u)
	}
	if s := c.Stranding(); !s.IsZero() {
		t.Errorf("Stranding = %v", s)
	}
}

func TestSchedulerPolicies(t *testing.T) {
	mk := func() []*Machine {
		a := NewMachine(0, Usage{CPU: 10, RAM: 10, Disk: 10})
		b := NewMachine(1, Usage{CPU: 10, RAM: 10, Disk: 10})
		// Machine a is half full.
		a.place(Task{ID: "bg", Team: "bg", Req: Usage{CPU: 5, RAM: 5, Disk: 5}})
		return []*Machine{a, b}
	}
	req := Usage{CPU: 2, RAM: 2, Disk: 2}

	if m := (FirstFit{}).Pick(mk(), req); m.ID != 0 {
		t.Errorf("FirstFit picked %d", m.ID)
	}
	if m := (BestFit{}).Pick(mk(), req); m.ID != 0 {
		t.Errorf("BestFit picked %d (wants the fuller machine)", m.ID)
	}
	if m := (WorstFit{}).Pick(mk(), req); m.ID != 1 {
		t.Errorf("WorstFit picked %d (wants the emptier machine)", m.ID)
	}
	// Nothing fits.
	if m := (FirstFit{}).Pick(mk(), Usage{CPU: 20}); m != nil {
		t.Error("FirstFit found impossible fit")
	}
	if m := (BestFit{}).Pick(mk(), Usage{CPU: 20}); m != nil {
		t.Error("BestFit found impossible fit")
	}
	if m := (WorstFit{}).Pick(mk(), Usage{CPU: 20}); m != nil {
		t.Error("WorstFit found impossible fit")
	}
	if len(Schedulers()) != 3 {
		t.Error("Schedulers() wrong")
	}
	for _, s := range Schedulers() {
		if s.Name() == "" {
			t.Error("unnamed scheduler")
		}
	}
}

func TestStranding(t *testing.T) {
	c := New("r1", nil)
	c.AddMachines(2, Usage{CPU: 10, RAM: 10, Disk: 10})
	// Fill machine 0's CPU completely, leaving RAM/Disk stranded there.
	if err := c.Place(Task{ID: "cpu-hog", Team: "x", Req: Usage{CPU: 10, RAM: 1, Disk: 1}}); err != nil {
		t.Fatal(err)
	}
	s := c.Stranding()
	// Machine 0 has 9 RAM free of 19 total free RAM.
	want := 9.0 / 19.0
	if s.RAM < want-1e-9 || s.RAM > want+1e-9 {
		t.Errorf("RAM stranding = %v, want %v", s.RAM, want)
	}
	if s.CPU != 0 {
		t.Errorf("CPU stranding = %v (no free CPU is stranded)", s.CPU)
	}
}

// TeamUsage's float sums must not depend on map iteration order:
// 0.1+0.2+0.3 and 0.3+0.2+0.1 differ in the last bit, so a map-order sum
// yields different bits across calls.
func TestTeamUsageBitsStable(t *testing.T) {
	c := New("r1", nil)
	c.AddMachines(1, Usage{CPU: 100, RAM: 100, Disk: 100})
	for i, cpu := range []float64{0.1, 0.2, 0.3} {
		if err := c.Place(Task{ID: fmt.Sprint(i), Team: "alpha", Req: Usage{CPU: cpu}}); err != nil {
			t.Fatal(err)
		}
	}
	want := math.Float64bits(c.TeamUsage()["alpha"].CPU)
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(c.TeamUsage()["alpha"].CPU); got != want {
			t.Fatalf("call %d: TeamUsage CPU bits %#x, first call %#x", i, got, want)
		}
	}
}

func TestTeamUsageAndSortedTeams(t *testing.T) {
	c := New("r1", nil)
	c.AddMachines(1, Usage{CPU: 100, RAM: 100, Disk: 100})
	c.Place(Task{ID: "1", Team: "beta", Req: Usage{CPU: 1}})
	c.Place(Task{ID: "2", Team: "alpha", Req: Usage{CPU: 2}})
	c.Place(Task{ID: "3", Team: "alpha", Req: Usage{CPU: 3}})
	u := c.TeamUsage()
	if u["alpha"].CPU != 5 || u["beta"].CPU != 1 {
		t.Errorf("TeamUsage = %v", u)
	}
	teams := c.SortedTeams()
	if len(teams) != 2 || teams[0] != "alpha" || teams[1] != "beta" {
		t.Errorf("SortedTeams = %v", teams)
	}
}

func TestQuickPlacementNeverOvercommits(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, sched := range Schedulers() {
			c := New("q", sched)
			c.AddMachines(rng.Intn(4)+1, Usage{CPU: 16, RAM: 64, Disk: 8})
			for i := 0; i < 50; i++ {
				req := Usage{
					CPU:  rng.Float64() * 8,
					RAM:  rng.Float64() * 32,
					Disk: rng.Float64() * 4,
				}
				// Errors are fine; overcommit is not.
				_, _ = i, c.Place(Task{ID: strings.Repeat("x", i+1), Team: "t", Req: req})
			}
			for _, m := range c.Machines() {
				if !m.Used().FitsWithin(m.Cap) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
