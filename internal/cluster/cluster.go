// Package cluster simulates the compute substrate underneath the resource
// market: clusters of machines with per-dimension capacities, tasks placed
// onto them by a bin-packing scheduler, per-team quota enforcement, and
// the utilization metric ψ(r) that Section IV's reserve pricing consumes.
//
// The paper ran against Google's production cluster-management stack; this
// simulator is the substitution documented in DESIGN.md. It reproduces
// the properties the market cares about — finite capacity, multi-
// dimensional packing (including stranding), heterogeneous load — without
// the proprietary substrate.
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"clustermarket/internal/resource"
)

// Usage is a quantity across the three standard dimensions.
type Usage struct {
	CPU, RAM, Disk float64
}

// Get returns the quantity for dimension d (0 for Network, which the
// simulator does not model).
func (u Usage) Get(d resource.Dimension) float64 {
	switch d {
	case resource.CPU:
		return u.CPU
	case resource.RAM:
		return u.RAM
	case resource.Disk:
		return u.Disk
	default:
		return 0
	}
}

// Set returns a copy of u with dimension d set to v.
func (u Usage) Set(d resource.Dimension, v float64) Usage {
	switch d {
	case resource.CPU:
		u.CPU = v
	case resource.RAM:
		u.RAM = v
	case resource.Disk:
		u.Disk = v
	}
	return u
}

// Add returns u + v.
func (u Usage) Add(v Usage) Usage {
	return Usage{u.CPU + v.CPU, u.RAM + v.RAM, u.Disk + v.Disk}
}

// Sub returns u − v.
func (u Usage) Sub(v Usage) Usage {
	return Usage{u.CPU - v.CPU, u.RAM - v.RAM, u.Disk - v.Disk}
}

// Scale returns k·u.
func (u Usage) Scale(k float64) Usage {
	return Usage{k * u.CPU, k * u.RAM, k * u.Disk}
}

// FitsWithin reports whether u ≤ v componentwise.
func (u Usage) FitsWithin(v Usage) bool {
	return u.CPU <= v.CPU && u.RAM <= v.RAM && u.Disk <= v.Disk
}

// IsZero reports whether all components are zero.
func (u Usage) IsZero() bool { return u == Usage{} }

// NonNegative reports whether all components are ≥ 0.
func (u Usage) NonNegative() bool { return u.CPU >= 0 && u.RAM >= 0 && u.Disk >= 0 }

func (u Usage) String() string {
	return fmt.Sprintf("cpu=%g ram=%g disk=%g", u.CPU, u.RAM, u.Disk)
}

// Task is one schedulable unit of work owned by a team.
type Task struct {
	ID   string
	Team string
	Req  Usage
}

// Machine is one host with fixed capacity.
type Machine struct {
	ID    int
	Cap   Usage
	used  Usage
	tasks map[string]Task
}

// NewMachine returns an empty machine with the given capacity.
func NewMachine(id int, cap Usage) *Machine {
	return &Machine{ID: id, Cap: cap, tasks: make(map[string]Task)}
}

// Used returns the machine's committed usage.
func (m *Machine) Used() Usage { return m.used }

// Free returns the machine's remaining capacity.
func (m *Machine) Free() Usage { return m.Cap.Sub(m.used) }

// Fits reports whether req fits in the machine's free capacity.
func (m *Machine) Fits(req Usage) bool { return req.FitsWithin(m.Free()) }

// place commits a task. The scheduler must have verified fit.
func (m *Machine) place(t Task) {
	m.used = m.used.Add(t.Req)
	m.tasks[t.ID] = t
}

// remove evicts a task, returning false if it is not on this machine.
func (m *Machine) remove(id string) bool {
	t, ok := m.tasks[id]
	if !ok {
		return false
	}
	m.used = m.used.Sub(t.Req)
	delete(m.tasks, id)
	return true
}

// TaskCount returns the number of tasks on the machine.
func (m *Machine) TaskCount() int { return len(m.tasks) }

// Tasks returns the machine's tasks sorted by ID.
func (m *Machine) Tasks() []Task {
	out := make([]Task, 0, len(m.tasks))
	for _, t := range m.tasks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MaxDimUtilization returns the machine's most-utilized dimension as a
// fraction of capacity, used by the stranding metric.
func (m *Machine) MaxDimUtilization() float64 {
	frac := func(used, capacity float64) float64 {
		if capacity <= 0 {
			return 0
		}
		return used / capacity
	}
	best := frac(m.used.CPU, m.Cap.CPU)
	if f := frac(m.used.RAM, m.Cap.RAM); f > best {
		best = f
	}
	if f := frac(m.used.Disk, m.Cap.Disk); f > best {
		best = f
	}
	return best
}

// OperatorUnitCost is the operator's real unit cost c(r) in the simulated
// worlds (the figure generator's and the scenario engine's): the "former
// fixed prices" that predate the market, the denominators of Figure 6,
// and the fair value bidders shade their limits over.
var OperatorUnitCost = Usage{CPU: 1, RAM: 0.25, Disk: 2}

// Cluster is a named pool of machines sharing one scheduler.
type Cluster struct {
	Name string
	// UnitCost is the operator's real per-unit cost c(r) for each
	// dimension (Section IV), used to derive reserve prices.
	UnitCost Usage

	machines  []*Machine
	scheduler Scheduler
	taskHome  map[string]*Machine
	nextID    int
}

// New creates an empty cluster using the given scheduler (nil selects
// FirstFit).
func New(name string, s Scheduler) *Cluster {
	if s == nil {
		s = FirstFit{}
	}
	return &Cluster{
		Name:      name,
		UnitCost:  Usage{CPU: 1, RAM: 1, Disk: 1},
		scheduler: s,
		taskHome:  make(map[string]*Machine),
	}
}

// AddMachines appends n machines of the given capacity.
func (c *Cluster) AddMachines(n int, cap Usage) {
	for i := 0; i < n; i++ {
		c.machines = append(c.machines, NewMachine(c.nextID, cap))
		c.nextID++
	}
}

// Machines returns the cluster's machines (shared slice; do not mutate).
func (c *Cluster) Machines() []*Machine { return c.machines }

// ErrNoFit is returned when no machine can host a task.
var ErrNoFit = errors.New("cluster: no machine fits task")

// ErrDuplicateTask is returned when a task ID is already placed.
var ErrDuplicateTask = errors.New("cluster: task already placed")

// Place schedules the task onto some machine.
func (c *Cluster) Place(t Task) error {
	if !t.Req.NonNegative() {
		return fmt.Errorf("cluster: task %q has negative requirements", t.ID)
	}
	if _, ok := c.taskHome[t.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateTask, t.ID)
	}
	m := c.scheduler.Pick(c.machines, t.Req)
	if m == nil {
		return fmt.Errorf("%w: task %q (%v) in cluster %s", ErrNoFit, t.ID, t.Req, c.Name)
	}
	m.place(t)
	c.taskHome[t.ID] = m
	return nil
}

// TaskInfo returns the placed task with the given ID and the ID of the
// machine hosting it, or ok=false when the task is unknown.
func (c *Cluster) TaskInfo(id string) (t Task, machineID int, ok bool) {
	m, found := c.taskHome[id]
	if !found {
		return Task{}, 0, false
	}
	return m.tasks[id], m.ID, true
}

// PlaceAt places a task directly onto the identified machine, bypassing
// the scheduler — the snapshot-restore path uses it to pin recovered
// tasks to the machines they originally landed on, so a rebuilt fleet
// is machine-for-machine identical to the one that crashed. The fit
// check tolerates a float-epsilon overshoot: the restored accumulator is
// corrected by SetMachineUsed afterwards.
func (c *Cluster) PlaceAt(machineID int, t Task) error {
	if !t.Req.NonNegative() {
		return fmt.Errorf("cluster: task %q has negative requirements", t.ID)
	}
	if _, ok := c.taskHome[t.ID]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateTask, t.ID)
	}
	for _, m := range c.machines {
		if m.ID != machineID {
			continue
		}
		slack := m.Free().Sub(t.Req)
		const eps = 1e-6
		if slack.CPU < -eps || slack.RAM < -eps || slack.Disk < -eps {
			return fmt.Errorf("%w: task %q (%v) on machine %d of cluster %s",
				ErrNoFit, t.ID, t.Req, machineID, c.Name)
		}
		m.place(t)
		c.taskHome[t.ID] = m
		return nil
	}
	return fmt.Errorf("cluster: no machine %d in cluster %s", machineID, c.Name)
}

// SetMachineUsed overwrites a machine's committed-usage accumulator.
// The accumulator is a float sum whose exact value depends on the
// historical add/evict order, not just the surviving tasks — so a
// restored fleet must adopt the recorded accumulator verbatim, or
// utilization (and with it reserve prices) drifts by an ulp from the
// process that crashed.
func (c *Cluster) SetMachineUsed(machineID int, u Usage) error {
	for _, m := range c.machines {
		if m.ID == machineID {
			m.used = u
			return nil
		}
	}
	return fmt.Errorf("cluster: no machine %d in cluster %s", machineID, c.Name)
}

// Evict removes a task by ID, returning false when it is unknown.
func (c *Cluster) Evict(id string) bool {
	m, ok := c.taskHome[id]
	if !ok {
		return false
	}
	m.remove(id)
	delete(c.taskHome, id)
	return true
}

// TaskCount returns the number of placed tasks.
func (c *Cluster) TaskCount() int { return len(c.taskHome) }

// Capacity returns the summed machine capacity.
func (c *Cluster) Capacity() Usage {
	var total Usage
	for _, m := range c.machines {
		total = total.Add(m.Cap)
	}
	return total
}

// Used returns the summed committed usage.
func (c *Cluster) Used() Usage {
	var total Usage
	for _, m := range c.machines {
		total = total.Add(m.used)
	}
	return total
}

// Utilization returns ψ per dimension as fractions in [0, 1].
func (c *Cluster) Utilization() Usage {
	capacity := c.Capacity()
	used := c.Used()
	frac := func(u, cp float64) float64 {
		if cp <= 0 {
			return 0
		}
		return u / cp
	}
	return Usage{
		CPU:  frac(used.CPU, capacity.CPU),
		RAM:  frac(used.RAM, capacity.RAM),
		Disk: frac(used.Disk, capacity.Disk),
	}
}

// Stranding returns, per dimension, the fraction of the cluster's *free*
// capacity that sits on machines whose most-utilized dimension is ≥ 95%:
// capacity that exists on paper but cannot host a balanced task because
// another dimension is exhausted. Improving this number is the paper's
// "improves the overall bin-packing of system clusters" motivation.
func (c *Cluster) Stranding() Usage {
	var strandedFree, totalFree Usage
	for _, m := range c.machines {
		free := m.Free()
		totalFree = totalFree.Add(free)
		if m.MaxDimUtilization() >= 0.95 {
			strandedFree = strandedFree.Add(free)
		}
	}
	frac := func(s, t float64) float64 {
		if t <= 0 {
			return 0
		}
		return s / t
	}
	return Usage{
		CPU:  frac(strandedFree.CPU, totalFree.CPU),
		RAM:  frac(strandedFree.RAM, totalFree.RAM),
		Disk: frac(strandedFree.Disk, totalFree.Disk),
	}
}

// TeamUsage sums the requirements of every placed task per team,
// machine by machine and each machine's tasks in ID order, so the float
// sums do not depend on map iteration order.
func (c *Cluster) TeamUsage() map[string]Usage {
	out := make(map[string]Usage)
	for _, m := range c.machines {
		for _, t := range m.Tasks() {
			out[t.Team] = out[t.Team].Add(t.Req)
		}
	}
	return out
}

// Scheduler picks a machine for a request, or nil when none fits.
type Scheduler interface {
	Name() string
	Pick(machines []*Machine, req Usage) *Machine
}

// FirstFit returns the first machine with room — the fastest policy.
type FirstFit struct{}

// Name implements Scheduler.
func (FirstFit) Name() string { return "first-fit" }

// Pick implements Scheduler.
func (FirstFit) Pick(machines []*Machine, req Usage) *Machine {
	for _, m := range machines {
		if m.Fits(req) {
			return m
		}
	}
	return nil
}

// BestFit returns the fitting machine with the least remaining slack,
// packing machines tightly.
type BestFit struct{}

// Name implements Scheduler.
func (BestFit) Name() string { return "best-fit" }

// Pick implements Scheduler.
func (BestFit) Pick(machines []*Machine, req Usage) *Machine {
	var best *Machine
	bestSlack := 0.0
	for _, m := range machines {
		if !m.Fits(req) {
			continue
		}
		free := m.Free().Sub(req)
		slack := free.CPU + free.RAM + free.Disk
		if best == nil || slack < bestSlack {
			best, bestSlack = m, slack
		}
	}
	return best
}

// WorstFit returns the fitting machine with the most remaining slack,
// spreading load evenly.
type WorstFit struct{}

// Name implements Scheduler.
func (WorstFit) Name() string { return "worst-fit" }

// Pick implements Scheduler.
func (WorstFit) Pick(machines []*Machine, req Usage) *Machine {
	var best *Machine
	bestSlack := -1.0
	for _, m := range machines {
		if !m.Fits(req) {
			continue
		}
		free := m.Free().Sub(req)
		slack := free.CPU + free.RAM + free.Disk
		if slack > bestSlack {
			best, bestSlack = m, slack
		}
	}
	return best
}

// Schedulers lists the available scheduling policies in a stable order.
func Schedulers() []Scheduler {
	return []Scheduler{FirstFit{}, BestFit{}, WorstFit{}}
}

// SortedTeams returns the cluster's teams in lexical order (handy for
// deterministic reports).
func (c *Cluster) SortedTeams() []string {
	usage := c.TeamUsage()
	teams := make([]string, 0, len(usage))
	for t := range usage {
		teams = append(teams, t)
	}
	sort.Strings(teams)
	return teams
}
