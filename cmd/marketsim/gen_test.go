package main

import (
	"slices"
	"strings"
	"testing"

	"clustermarket/internal/bidlang"
	"clustermarket/internal/resource"
	"clustermarket/internal/scenario"
)

func TestBidTreeRoundTripsThroughParser(t *testing.T) {
	reg := resource.NewStandardRegistry("r1", "r2")
	at := func(cluster string, cpu, ram, disk float64) []scenario.PoolQty {
		return []scenario.PoolQty{
			{Pool: resource.Pool{Cluster: cluster, Dim: resource.CPU}, Qty: cpu},
			{Pool: resource.Pool{Cluster: cluster, Dim: resource.RAM}, Qty: ram},
			{Pool: resource.Pool{Cluster: cluster, Dim: resource.Disk}, Qty: disk},
		}
	}
	o := scenario.Trade{User: "team-x/buy", Limit: 123.5, Bundles: [][]scenario.PoolQty{at("r1", 10, 20, 1), at("r2", 10, 20, 1)}}
	text := bidTree(o).String()
	bids, err := bidlang.ParseAll(text)
	if err != nil || len(bids) != 1 {
		t.Fatalf("rendered bid does not parse as one bid: %d bids, %v\n%s", len(bids), err, text)
	}
	parsed := bids[0]
	if parsed.User != o.User || parsed.Limit != o.Limit {
		t.Errorf("header lost: %+v", parsed)
	}
	bundles, err := parsed.Flatten(reg)
	if err != nil {
		t.Fatal(err)
	}
	want := []resource.Vector{{10, 20, 1, 0, 0, 0}, {0, 0, 0, 10, 20, 1}}
	if len(bundles) != len(want) {
		t.Fatalf("bundles = %d", len(bundles))
	}
	for i := range bundles {
		if !slices.Equal(bundles[i], want[i]) {
			t.Errorf("bundle %d differs: %v vs %v", i, bundles[i], want[i])
		}
	}
}

func TestBidTreeSingleBundleHasNoOneof(t *testing.T) {
	o := scenario.Trade{User: "s", Limit: -5, Bundles: [][]scenario.PoolQty{
		{{Pool: resource.Pool{Cluster: "r1", Dim: resource.CPU}, Qty: -3}},
	}}
	text := bidTree(o).String()
	if strings.Contains(text, "oneof") {
		t.Errorf("single-bundle bid rendered with oneof:\n%s", text)
	}
	if bids, err := bidlang.ParseAll(text); err != nil || len(bids) != 1 {
		t.Fatalf("parse: %d bids, %v\n%s", len(bids), err, text)
	}
}

// TestGenProducesParseableOutput reparses gen's output and requires the
// population to hold team offers (negative quantities) beside the bids.
func TestGenProducesParseableOutput(t *testing.T) {
	var buf strings.Builder
	if err := gen(&buf, 3, 2); err != nil {
		t.Fatalf("gen: %v", err)
	}
	// Strip comment lines and reparse everything.
	var lines []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "#") {
			lines = append(lines, line)
		}
	}
	bids, err := bidlang.ParseAll(strings.Join(lines, "\n"))
	if err != nil {
		t.Fatalf("generated output does not parse: %v", err)
	}
	if len(bids) < 6 {
		t.Errorf("suspiciously few bids: %d", len(bids))
	}
	offers := 0
	for _, b := range bids {
		if strings.HasSuffix(b.User, "/offer") && strings.Contains(b.String(), ":-") {
			offers++
		}
	}
	if offers == 0 {
		t.Errorf("no offer among %d bids:\n%s", len(bids), buf.String())
	}
}
