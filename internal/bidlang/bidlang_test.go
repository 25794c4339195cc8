package bidlang

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"clustermarket/internal/resource"
)

const sampleBid = `
# A storage team indifferent between two clusters.
bid "team-storage" limit 120.5 {
  oneof {
    all { r1/cpu:40 r1/ram:96 r1/disk:10 }
    all { r2/cpu:40 r2/ram:96 r2/disk:10 }
  }
}
`

// Parse reads exactly one bid, as the tests write most of theirs.
func Parse(src string) (*Bid, error) {
	bids, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(bids) != 1 {
		return nil, fmt.Errorf("bidlang: expected exactly 1 bid, found %d", len(bids))
	}
	return bids[0], nil
}

func TestParseSample(t *testing.T) {
	b, err := Parse(sampleBid)
	if err != nil {
		t.Fatal(err)
	}
	if b.User != "team-storage" || b.Limit != 120.5 {
		t.Fatalf("header = %q %v", b.User, b.Limit)
	}
	oneof, ok := b.Root.(OneOf)
	if !ok {
		t.Fatalf("root is %T", b.Root)
	}
	if len(oneof.Children) != 2 {
		t.Fatalf("children = %d", len(oneof.Children))
	}
	all, ok := oneof.Children[0].(All)
	if !ok || len(all.Children) != 3 {
		t.Fatalf("first alternative = %#v", oneof.Children[0])
	}
	leaf := all.Children[0].(Leaf)
	if leaf.Pool != (resource.Pool{Cluster: "r1", Dim: resource.CPU}) || leaf.Qty != 40 {
		t.Fatalf("leaf = %+v", leaf)
	}
}

func TestFlattenSample(t *testing.T) {
	reg := resource.NewStandardRegistry("r1", "r2")
	b, err := Parse(sampleBid)
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := b.Flatten(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 2 {
		t.Fatalf("bundles = %d", len(bundles))
	}
	i1 := mustIndex(reg, resource.Pool{Cluster: "r1", Dim: resource.RAM})
	if bundles[0][i1] != 96 {
		t.Errorf("bundle 0 r1/RAM = %v", bundles[0][i1])
	}
	i2 := mustIndex(reg, resource.Pool{Cluster: "r2", Dim: resource.RAM})
	if bundles[1][i2] != 96 {
		t.Errorf("bundle 1 r2/RAM = %v", bundles[1][i2])
	}
}

func TestFlattenCrossProduct(t *testing.T) {
	// all{ oneof{a b} oneof{c d} } must expand to 4 bundles.
	src := `bid "x" limit 10 {
	  all {
	    oneof { r1/cpu:1 r2/cpu:1 }
	    oneof { r1/ram:2 r2/ram:2 }
	  }
	}`
	reg := resource.NewStandardRegistry("r1", "r2")
	b, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := b.Flatten(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 4 {
		t.Fatalf("bundles = %d, want 4", len(bundles))
	}
}

func TestFlattenMergesDuplicateLeaves(t *testing.T) {
	src := `bid "x" limit 10 { all { r1/cpu:1 r1/cpu:2 } }`
	reg := resource.NewStandardRegistry("r1")
	b, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := b.Flatten(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 {
		t.Fatalf("bundles = %d", len(bundles))
	}
	if got := bundles[0][mustIndex(reg, resource.Pool{Cluster: "r1", Dim: resource.CPU})]; got != 3 {
		t.Errorf("merged qty = %v", got)
	}
}

func TestFlattenDropsCancellingBundleAndDuplicates(t *testing.T) {
	src := `bid "x" limit 10 {
	  oneof {
	    all { r1/cpu:1 r1/cpu:-1 }
	    r1/ram:5
	    r1/ram:5
	  }
	}`
	reg := resource.NewStandardRegistry("r1")
	b, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := b.Flatten(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 {
		t.Fatalf("bundles = %d, want 1 (zero bundle dropped, dup merged)", len(bundles))
	}
}

func TestOfferAndTraderBids(t *testing.T) {
	reg := resource.NewStandardRegistry("r1", "r2")
	// Pure offer: negative quantities, negative limit (min receipt).
	offer, err := Parse(`bid "seller" limit -50 { all { r1/cpu:-20 r1/ram:-48 } }`)
	if err != nil {
		t.Fatal(err)
	}
	bundles, err := offer.Flatten(reg)
	if err != nil {
		t.Fatal(err)
	}
	if bundles[0].PureDirection() != -1 {
		t.Errorf("offer direction = %d", bundles[0].PureDirection())
	}
	// Trader: sells in r1, buys in r2.
	trader, err := Parse(`bid "trader" limit 5 { all { r1/cpu:-10 r2/cpu:10 } }`)
	if err != nil {
		t.Fatal(err)
	}
	bundles, err = trader.Flatten(reg)
	if err != nil {
		t.Fatal(err)
	}
	if bundles[0].PureDirection() != 0 {
		t.Errorf("trader direction = %d", bundles[0].PureDirection())
	}
}

func TestParseAllMultipleBids(t *testing.T) {
	src := `bid "a" limit 1 { r1/cpu:1 }
	bid "b" limit 2 { r1/ram:2 }`
	bids, err := ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(bids) != 2 || bids[0].User != "a" || bids[1].User != "b" {
		t.Fatalf("bids = %+v", bids)
	}
	if _, err := Parse(src); err == nil {
		t.Error("Parse accepted two bids")
	}
}

func TestImplicitAllAtTopLevel(t *testing.T) {
	b, err := Parse(`bid "x" limit 3 { r1/cpu:1 r1/ram:2 }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Root.(All); !ok {
		t.Fatalf("root = %T, want All", b.Root)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"no bid keyword", `offer "x" limit 1 { r1/cpu:1 }`},
		{"unquoted name", `bid x limit 1 { r1/cpu:1 }`},
		{"missing limit", `bid "x" { r1/cpu:1 }`},
		{"bad limit", `bid "x" limit abc { r1/cpu:1 }`},
		{"empty body", `bid "x" limit 1 { }`},
		{"empty all", `bid "x" limit 1 { all { } }`},
		{"empty oneof", `bid "x" limit 1 { oneof { } }`},
		{"bad leaf", `bid "x" limit 1 { r1cpu1 }`},
		{"bad dimension", `bid "x" limit 1 { r1/gpu:1 }`},
		{"zero qty", `bid "x" limit 1 { r1/cpu:0 }`},
		{"unterminated string", `bid "x`},
		{"unterminated brace", `bid "x" limit 1 { r1/cpu:1`},
		{"stray char", `bid "x" limit 1 { r1/cpu:1 } !`},
	}
	for _, c := range cases {
		if _, err := ParseAll(c.src); err == nil {
			t.Errorf("%s: no error for %q", c.name, c.src)
		}
	}
}

func TestFlattenErrors(t *testing.T) {
	reg := resource.NewStandardRegistry("r1")
	// Unregistered pool.
	b, err := Parse(`bid "x" limit 1 { zz/cpu:1 }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Flatten(reg); err == nil {
		t.Error("unregistered pool accepted")
	}
	// Nil root.
	nb := &Bid{User: "x", Limit: 1}
	if _, err := nb.Flatten(reg); err == nil {
		t.Error("nil root accepted")
	}
}

func TestFlattenExplosionGuard(t *testing.T) {
	// 13 oneof nodes of 2 alternatives each = 8192 > MaxBundles.
	var sb strings.Builder
	sb.WriteString(`bid "boom" limit 1 { all {`)
	for i := 0; i < 13; i++ {
		sb.WriteString(` oneof { r1/cpu:1 r1/ram:1 }`)
	}
	sb.WriteString(` } }`)
	b, err := Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	reg := resource.NewStandardRegistry("r1")
	if _, err := b.Flatten(reg); err == nil {
		t.Error("combinatorial explosion not guarded")
	}
}

func TestPools(t *testing.T) {
	b, err := Parse(sampleBid)
	if err != nil {
		t.Fatal(err)
	}
	pools := b.Pools()
	if len(pools) != 6 {
		t.Fatalf("pools = %v", pools)
	}
	// Sorted: r1 before r2, CPU < RAM < Disk within each cluster.
	if pools[0] != (resource.Pool{Cluster: "r1", Dim: resource.CPU}) {
		t.Errorf("pools[0] = %v", pools[0])
	}
	if pools[5] != (resource.Pool{Cluster: "r2", Dim: resource.Disk}) {
		t.Errorf("pools[5] = %v", pools[5])
	}
}

func TestStringRoundTrip(t *testing.T) {
	orig, err := Parse(sampleBid)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := Parse(orig.String())
	if err != nil {
		t.Fatalf("reparse failed: %v\ntext:\n%s", err, orig.String())
	}
	reg := resource.NewStandardRegistry("r1", "r2")
	b1, err := orig.Flatten(reg)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := reparsed.Flatten(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) != len(b2) {
		t.Fatalf("bundle counts differ: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		if !slices.Equal(b1[i], b2[i]) {
			t.Errorf("bundle %d differs", i)
		}
	}
}

// TestQuickGeneratedBidRoundTrip builds random bid trees, prints them, and
// verifies text round-trip preserves the flattened bundle set.
func TestQuickGeneratedBidRoundTrip(t *testing.T) {
	reg := resource.NewStandardRegistry("r1", "r2", "r3")
	gen := func(r *rand.Rand) Node {
		return genNode(r, 2)
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bid := &Bid{User: "gen", Limit: float64(r.Intn(100) + 1), Root: gen(r)}
		b1, err := bid.Flatten(reg)
		if err != nil {
			// Random trees can legitimately cancel to zero; skip those.
			return strings.Contains(err.Error(), "no non-empty bundles")
		}
		back, err := Parse(bid.String())
		if err != nil {
			return false
		}
		b2, err := back.Flatten(reg)
		if err != nil {
			return false
		}
		if len(b1) != len(b2) {
			return false
		}
		for i := range b1 {
			if !slices.Equal(b1[i], b2[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func genNode(r *rand.Rand, depth int) Node {
	clusters := []string{"r1", "r2", "r3"}
	dims := []resource.Dimension{resource.CPU, resource.RAM, resource.Disk}
	leaf := func() Node {
		qty := float64(r.Intn(20) + 1)
		if r.Intn(4) == 0 {
			qty = -qty
		}
		return Leaf{
			Pool: resource.Pool{Cluster: clusters[r.Intn(len(clusters))], Dim: dims[r.Intn(len(dims))]},
			Qty:  qty,
		}
	}
	if depth == 0 || r.Intn(3) == 0 {
		return leaf()
	}
	n := r.Intn(3) + 1
	children := make([]Node, n)
	for i := range children {
		children[i] = genNode(r, depth-1)
	}
	if r.Intn(2) == 0 {
		return All{Children: children}
	}
	return OneOf{Children: children}
}

// mustIndex is reg's index of pool p, which the test registered.
func mustIndex(reg *resource.Registry, p resource.Pool) int {
	i, ok := reg.Index(p)
	if !ok {
		panic(fmt.Sprintf("pool %v not registered", p))
	}
	return i
}
