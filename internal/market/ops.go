package market

import (
	"fmt"
)

// PlaceOrder schedules a won order's allocation onto the fleet through
// the event stream: the placement is journaled (as an order-placed
// event whose replay re-runs the same deterministic chunked placement)
// and tracked in the exchange's fleet delta so snapshots can pin the
// resulting tasks to their machines. It returns the tasks placed, in
// placement order. Callers that previously scheduled allocations
// directly on the fleet should go through here so crash recovery
// reproduces the fleet exactly.
func (e *Exchange) PlaceOrder(id int) ([]PlacedTask, error) {
	e.settleMu.Lock()
	defer e.settleMu.Unlock()
	status, _, ok := e.Outcome(id)
	if !ok {
		return nil, fmt.Errorf("market: no order %d", id)
	}
	if status != Won {
		return nil, fmt.Errorf("market: placing order %d in state %s", id, status)
	}
	ev := &Event{Kind: EvOrderPlaced, OrderID: id}
	if err := e.emitEvent(ev); err != nil {
		return nil, err
	}
	return e.applyOrderPlaced(ev)
}

// EvictTask removes one placed task from the fleet through the event
// stream, so the eviction survives crash recovery.
func (e *Exchange) EvictTask(clusterName, taskID string) error {
	e.settleMu.Lock()
	defer e.settleMu.Unlock()
	c := e.fleet.Cluster(clusterName)
	if c == nil {
		return fmt.Errorf("market: unknown cluster %q", clusterName)
	}
	if _, _, ok := c.TaskInfo(taskID); !ok {
		return fmt.Errorf("market: no task %q in cluster %q", taskID, clusterName)
	}
	ev := &Event{Kind: EvTaskEvicted, Cluster: clusterName, TaskID: taskID}
	if err := e.emitEvent(ev); err != nil {
		return err
	}
	return e.applyTaskEvicted(ev)
}

// PlacedTasks returns the tasks scheduled through PlaceOrder that are
// still running, in placement order — the durable view a recovered
// process uses to rebuild per-region eviction bookkeeping.
func (e *Exchange) PlacedTasks() []PlacedTask {
	e.settleMu.Lock()
	defer e.settleMu.Unlock()
	refs := e.delta.live()
	out := make([]PlacedTask, len(refs))
	for i, ref := range refs {
		out[i] = PlacedTask{Cluster: ref.Cluster, TaskID: ref.TaskID}
	}
	return out
}
