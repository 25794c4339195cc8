package federation

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"clustermarket/internal/cluster"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
)

// RouterDir names the router journal's subdirectory of Open's directory;
// each region journals to the subdirectory named after it.
const RouterDir = "fed"

// Member is one region as Open assembles it: its name and its fleet as
// built. Fleets are not journaled, so a recovering caller rebuilds each
// one exactly as the crashed process first built it.
type Member struct {
	Name  string
	Fleet *cluster.Fleet
}

// Opened reports what Open found on disk.
type Opened struct {
	// Recovered is set when the federation was rebuilt from its journals.
	Recovered bool
	// Notes are the journals' recovery notes (journal.Recovery.Notes),
	// each prefixed by its journal's directory, in layout order.
	Notes []string
}

// Open assembles a federation of the members, journaled under dir: each
// region to dir/<name> and the router to dir/RouterDir. Recovery is all
// or nothing, since a half-recovered federation would split the routing
// state from the regional books: no subdirectories start fresh, exactly
// the members' and the router's recover every journal to the same cut,
// and anything else is refused, naming the journals missing or extra. An
// empty dir builds the same federation in memory. cfg applies to every
// region (Open sets its Journal); the router snapshots at the same
// cadence, market.DefaultSnapshotEvery when zero, and publishes to
// cfg.Telemetry. A caller runs invariant.CheckFederation on a recovered
// federation before serving it, and Close releases the journals.
func Open(dir string, opts journal.Options, cfg market.Config, members ...Member) (f *Federation, op Opened, err error) {
	if dir != "" {
		if op.Recovered, err = recovering(dir, members); err != nil {
			return nil, op, err
		}
	}
	var journals []*journal.Journal
	defer func() {
		if err != nil {
			for _, j := range journals {
				j.Close()
			}
		}
	}()
	// open opens the named journal under dir. A fresh journal, like none
	// in memory, is an empty recovery: replaying it builds afresh.
	open := func(name string) (*journal.Journal, *journal.Recovery, error) {
		if dir == "" {
			return nil, &journal.Recovery{}, nil
		}
		sub := filepath.Join(dir, name)
		j, rec, err := journal.Open(sub, opts)
		if err != nil {
			return nil, nil, err
		}
		journals = append(journals, j)
		for _, n := range rec.Notes {
			op.Notes = append(op.Notes, sub+": "+n)
		}
		return j, rec, nil
	}
	regions := make([]*Region, len(members))
	for i, m := range members {
		j, rec, err := open(m.Name)
		if err != nil {
			return nil, op, err
		}
		rcfg := cfg
		rcfg.Journal = j
		if regions[i], err = recoverRegion(m.Name, m.Fleet, rcfg, rec); err != nil {
			return nil, op, err
		}
	}
	if f, err = NewFederation(regions...); err != nil {
		return nil, op, err
	}
	f.AttachTelemetry(cfg.Telemetry)
	fj, frec, err := open(RouterDir)
	if err != nil {
		return nil, op, err
	}
	if err = f.Restore(frec); err != nil {
		return nil, op, err
	}
	every := cfg.SnapshotEvery
	if every == 0 {
		every = market.DefaultSnapshotEvery
	}
	f.AttachJournal(fj, every)
	return f, op, nil
}

// recovering applies Open's rule to dir's subdirectories: none is a
// fresh start, exactly the members' and the router's a recovery, and
// anything else an error naming the journals missing and extra.
func recovering(dir string, members []Member) (bool, error) {
	layout := make([]string, 0, len(members)+1)
	for _, m := range members {
		layout = append(layout, m.Name)
	}
	layout = append(layout, RouterDir)
	want := make(map[string]bool, len(layout))
	for _, name := range layout {
		want[name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return false, fmt.Errorf("federation: read journal dir: %w", err)
	}
	have := make(map[string]bool, len(entries))
	var wrong []string
	for _, e := range entries {
		if e.IsDir() {
			have[e.Name()] = true
			if !want[e.Name()] {
				wrong = append(wrong, "extra "+e.Name())
			}
		}
	}
	if len(have) == 0 {
		return false, nil
	}
	for _, name := range layout {
		if !have[name] {
			wrong = append(wrong, "missing "+name)
		}
	}
	if len(wrong) > 0 {
		return false, fmt.Errorf("federation: journal dir %s does not hold this federation's journals (%s); refusing a partial recovery",
			dir, strings.Join(wrong, ", "))
	}
	return true, nil
}

// Close closes the router's journal and every region's, and returns the
// first error. An in-memory federation has none to close.
func (f *Federation) Close() error {
	journals := []*journal.Journal{f.Journal()}
	for _, r := range f.regions {
		journals = append(journals, r.ex.Journal())
	}
	var first error
	for _, j := range journals {
		if j == nil {
			continue
		}
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
