package resource

import (
	"strings"
	"testing"
)

func TestParseDimension(t *testing.T) {
	cases := []struct {
		in      string
		want    Dimension
		wantErr bool
	}{
		{"cpu", CPU, false},
		{"CPU", CPU, false},
		{" Cores ", CPU, false},
		{"ram", RAM, false},
		{"Memory", RAM, false},
		{"mem", RAM, false},
		{"disk", Disk, false},
		{"storage", Disk, false},
		{"network", Network, false},
		{"net", Network, false},
		{"bandwidth", Network, false},
		{"gpu", 0, true},
		{"", 0, true},
	}
	for _, c := range cases {
		got, err := ParseDimension(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseDimension(%q): want error, got %v", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDimension(%q): unexpected error %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseDimension(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDimensionString(t *testing.T) {
	for _, d := range Dimensions {
		if d.String() == "" || strings.HasPrefix(d.String(), "Dimension(") {
			t.Errorf("dimension %d has no name", int(d))
		}
	}
	if got := Dimension(99).String(); got != "Dimension(99)" {
		t.Errorf("unknown dimension String() = %q", got)
	}
}

func TestRegistryAddAndIndex(t *testing.T) {
	r := &Registry{}
	p1 := Pool{Cluster: "r1", Dim: CPU}
	p2 := Pool{Cluster: "r1", Dim: RAM}

	if i := r.Add(p1); i != 0 {
		t.Fatalf("first Add = %d, want 0", i)
	}
	if i := r.Add(p2); i != 1 {
		t.Fatalf("second Add = %d, want 1", i)
	}
	if i := r.Add(p1); i != 0 {
		t.Fatalf("duplicate Add = %d, want existing index 0", i)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if i, ok := r.Index(p2); !ok || i != 1 {
		t.Fatalf("Index(p2) = %d,%v", i, ok)
	}
	if _, ok := r.Index(Pool{Cluster: "zz", Dim: Disk}); ok {
		t.Fatal("Index of unregistered pool reported ok")
	}
	if got := r.Pool(1); got != p2 {
		t.Fatalf("Pool(1) = %v, want %v", got, p2)
	}
}

// TestRegistryRow places a cluster's pools in standard-dimension order
// whatever order the registry lists them in, −1 for a missing one.
func TestRegistryRow(t *testing.T) {
	r := NewRegistry(
		Pool{Cluster: "b", Dim: Disk}, Pool{Cluster: "a", Dim: RAM},
		Pool{Cluster: "b", Dim: CPU}, Pool{Cluster: "a", Dim: Network},
		Pool{Cluster: "a", Dim: CPU},
	)
	for _, tc := range []struct {
		cluster string
		want    PoolRow
		ok      bool
	}{
		{"a", PoolRow{4, 1, -1}, true},
		{"b", PoolRow{2, -1, 0}, true},
		{"zz", PoolRow{-1, -1, -1}, false},
	} {
		if row, ok := r.Row(tc.cluster); row != tc.want || ok != tc.ok {
			t.Errorf("Row(%q) = %v, %t; want %v, %t", tc.cluster, row, ok, tc.want, tc.ok)
		}
	}
}

// indexRow is Row's definition, one Index lookup a standard dimension.
func indexRow(r *Registry, cluster string) (row PoolRow, ok bool) {
	for k, d := range StandardDimensions {
		row[k] = -1
		if i, found := r.Index(Pool{Cluster: cluster, Dim: d}); found {
			row[k], ok = int32(i), true
		}
	}
	return row, ok
}

// TestRegistryRowMatchesIndex holds Row, which reads the cluster index,
// to the per-dimension Index lookups it replaces.
func TestRegistryRowMatchesIndex(t *testing.T) {
	r := NewRegistry(
		Pool{Cluster: "a", Dim: Disk}, Pool{Cluster: "a", Dim: CPU},
		Pool{Cluster: "net", Dim: Network}, Pool{Cluster: "a", Dim: RAM},
	)
	check := func(when string, clusters ...string) {
		t.Helper()
		for _, cl := range clusters {
			row, ok := r.Row(cl)
			want, wantOK := indexRow(r, cl)
			if row != want || ok != wantOK {
				t.Errorf("%s: Row(%q) = %v, %t; Index gives %v, %t", when, cl, row, ok, want, wantOK)
			}
		}
	}
	check("built", "a", "net", "nope", "")
	// Add drops the index Row built: the new cluster, and a standard pool
	// of the Network-only one, are seen.
	r.Add(Pool{Cluster: "late", Dim: RAM})
	r.Add(Pool{Cluster: "net", Dim: CPU})
	check("after Add", "a", "net", "late", "nope")
}

// FuzzRegistryRow registers pools from byte pairs (cluster, dimension),
// resolving a name after every pair whose cluster byte is odd so the
// index is built and dropped mid-way, and holds Row to indexRow for
// every cluster and the fuzzed name.
func FuzzRegistryRow(f *testing.F) {
	f.Add([]byte{0, 2, 0, 0, 1, 3, 2, 1}, "c0")
	f.Add([]byte{5, 3, 5, 3}, "c5")
	f.Add([]byte{}, "")
	f.Fuzz(func(t *testing.T, pairs []byte, name string) {
		var r Registry
		names := []string{name}
		for i := 0; i+1 < len(pairs); i += 2 {
			cl := "c" + string(rune('0'+pairs[i]%8))
			r.Add(Pool{Cluster: cl, Dim: Dimension(pairs[i+1] % byte(numDimensions))})
			names = append(names, cl)
			if pairs[i]%2 == 1 {
				r.Row(name)
			}
		}
		for _, cl := range names {
			row, ok := r.Row(cl)
			if want, wantOK := indexRow(&r, cl); row != want || ok != wantOK {
				t.Fatalf("Row(%q) = %v, %t; Index gives %v, %t", cl, row, ok, want, wantOK)
			}
		}
	})
}

func TestNewStandardRegistry(t *testing.T) {
	r := NewStandardRegistry("r1", "r2")
	if r.Len() != 6 {
		t.Fatalf("Len = %d, want 6", r.Len())
	}
	clusters := r.Clusters()
	if len(clusters) != 2 || clusters[0] != "r1" || clusters[1] != "r2" {
		t.Fatalf("Clusters = %v", clusters)
	}
	cp := r.ClusterPools("r2")
	if len(cp) != 3 {
		t.Fatalf("ClusterPools(r2) = %v", cp)
	}
	for _, i := range cp {
		if r.Pool(i).Cluster != "r2" {
			t.Errorf("pool %d = %v not in r2", i, r.Pool(i))
		}
	}
}

// TestRegistryClusterViewFollowsAdd: the cached by-cluster view is
// dropped by Add, hands out copies, and knows no cluster it was not given.
func TestRegistryClusterViewFollowsAdd(t *testing.T) {
	r := NewStandardRegistry("r1")
	r.Clusters()[0] = "scribbled"
	r.ClusterPools("r1")[0] = 99
	if got := r.ClusterPools("r1"); len(got) != 3 || got[0] != 0 || r.Clusters()[0] != "r1" {
		t.Fatalf("accessors alias the cache: %v %v", r.Clusters(), got)
	}
	if got := r.ClusterPools("nope"); got != nil {
		t.Errorf("ClusterPools of an unknown cluster = %v", got)
	}
	// Pools of one cluster need not be registered next to each other.
	r.Add(Pool{Cluster: "r2", Dim: CPU})
	r.Add(Pool{Cluster: "r1", Dim: Network})
	if got := r.Clusters(); len(got) != 2 || got[1] != "r2" {
		t.Errorf("Clusters after Add = %v", got)
	}
	if got := r.ClusterPools("r1"); len(got) != 4 || got[3] != 4 {
		t.Errorf("ClusterPools(r1) after Add = %v", got)
	}
}

func TestRegistryZeroAndFormat(t *testing.T) {
	r := NewStandardRegistry("r1")
	v := r.Zero()
	if len(v) != 3 {
		t.Fatalf("Zero len = %d", len(v))
	}
	if got := r.Format(v); got != "(empty)" {
		t.Errorf("Format(zero) = %q", got)
	}
	v[r.index[Pool{"r1", CPU}]] = 40
	v[r.index[Pool{"r1", Disk}]] = -2
	got := r.Format(v)
	if !strings.Contains(got, "r1/CPU:+40") || !strings.Contains(got, "r1/Disk:-2") {
		t.Errorf("Format = %q", got)
	}
}
