package federation_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"clustermarket/internal/federation"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
)

// TestOpen pins Open's three ways in — in memory, fresh and recovered —
// and its rule: a directory holding any other set of journals is refused,
// naming what is missing or extra.
func TestOpen(t *testing.T) {
	t.Run("in memory", func(t *testing.T) {
		f, op := openFed(t, "")
		if op.Recovered || len(op.Notes) > 0 {
			t.Errorf("in-memory open reported %+v", op)
		}
		if f.Journal() != nil {
			t.Error("in-memory router has a journal")
		}
		for _, r := range f.Regions() {
			if r.Exchange().Journal() != nil {
				t.Errorf("in-memory region %s has a journal", r.Name())
			}
		}
		if err := f.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})

	t.Run("fresh", func(t *testing.T) {
		dir := t.TempDir()
		f, op := openFed(t, dir)
		if op.Recovered || len(op.Notes) > 0 {
			t.Errorf("fresh open reported %+v", op)
		}
		for _, name := range []string{"hot", "cold", federation.RouterDir} {
			if _, err := os.Stat(filepath.Join(dir, name, "wal")); err != nil {
				t.Errorf("no journal for %s: %v", name, err)
			}
		}
		// The router snapshots at the regions' cadence: three settlements.
		for i := 0; i < fedConfig.SnapshotEvery; i++ {
			if _, err := f.SubmitProduct("team", "batch-compute", 1, []string{"cold-r1"}, 500); err != nil {
				t.Fatal(err)
			}
			if _, err := f.SettleRegion("cold"); err != nil {
				t.Fatal(err)
			}
		}
		if n := f.Journal().Metrics().Snapshots; n != 1 {
			t.Errorf("router wrote %d snapshots in %d settlements, want 1", n, fedConfig.SnapshotEvery)
		}
		if n := f.Region("cold").Exchange().Journal().Metrics().Snapshots; n != 1 {
			t.Errorf("cold wrote %d snapshots in %d auctions, want 1", n, fedConfig.SnapshotEvery)
		}
	})

	t.Run("recovered", func(t *testing.T) {
		dir := t.TempDir()
		live, _ := openFed(t, dir)
		driveFed(t, live)
		if err := live.Close(); err != nil {
			t.Fatal(err)
		}
		// cold settled twice, so its WAL is whole and an unreadable
		// snapshot beside it is ignored, with a note.
		cold := filepath.Join(dir, "cold")
		if err := os.WriteFile(filepath.Join(cold, "snapshot.json"), []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		f, op := openFed(t, dir)
		if !op.Recovered {
			t.Fatal("a journaled directory started fresh")
		}
		if len(op.Notes) != 1 || !strings.HasPrefix(op.Notes[0], cold+": ") || !strings.Contains(op.Notes[0], "unreadable") {
			t.Errorf("notes = %q, want one naming %s's unreadable snapshot", op.Notes, cold)
		}
		if got, want := imageOf(t, f), imageOf(t, live); !reflect.DeepEqual(got, want) {
			t.Errorf("recovered federation diverges:\nlive      %+v\nrecovered %+v", want, got)
		}
		invariant.RequireFederation(t, "recovered", f)
	})

	for _, tc := range []struct {
		name, change, want string
	}{
		{"region missing", "-cold", "missing cold"},
		{"router missing", "-" + federation.RouterDir, "missing fed"},
		{"extra region", "+asia", "extra asia"},
	} {
		t.Run("refused/"+tc.name, func(t *testing.T) {
			dir := t.TempDir()
			f, _ := openFed(t, dir)
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			sub := filepath.Join(dir, tc.change[1:])
			var err error
			if tc.change[0] == '-' {
				err = os.RemoveAll(sub)
			} else {
				err = os.Mkdir(sub, 0o755)
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := federation.Open(dir, journal.Options{}, fedConfig, fedMembers(t)...); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v, want a refusal naming %q", err, tc.want)
			}
		})
	}
}
