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

func TestRegistryMustIndexPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustIndex on missing pool did not panic")
		}
	}()
	(&Registry{}).MustIndex(Pool{Cluster: "nope", Dim: CPU})
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
	v[r.MustIndex(Pool{"r1", CPU})] = 40
	v[r.MustIndex(Pool{"r1", Disk})] = -2
	got := r.Format(v)
	if !strings.Contains(got, "r1/CPU:+40") || !strings.Contains(got, "r1/Disk:-2") {
		t.Errorf("Format = %q", got)
	}
}

func TestRegistryString(t *testing.T) {
	r := NewStandardRegistry("a", "b", "c")
	if got := r.String(); got != "Registry(9 pools, 3 clusters)" {
		t.Errorf("String = %q", got)
	}
}
