package main

import (
	"strings"
	"testing"

	"clustermarket/internal/bidlang"
	"clustermarket/internal/core"
	"clustermarket/internal/resource"
)

func TestBidTreeRoundTripsThroughParser(t *testing.T) {
	reg := resource.NewStandardRegistry("r1", "r2")
	bid := &core.Bid{
		User:  "team-x/buy",
		Limit: 123.5,
		Bundles: []resource.Vector{
			{10, 20, 1, 0, 0, 0},
			{0, 0, 0, 10, 20, 1},
		},
	}
	text := bidTree(reg, bid).String()
	parsed, err := bidlang.Parse(text)
	if err != nil {
		t.Fatalf("rendered bid does not parse: %v\n%s", err, text)
	}
	if parsed.User != bid.User || parsed.Limit != bid.Limit {
		t.Errorf("header lost: %+v", parsed)
	}
	bundles, err := parsed.Flatten(reg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 2 {
		t.Fatalf("bundles = %d", len(bundles))
	}
	for i := range bundles {
		if !bundles[i].Equal(bid.Bundles[i], 0) {
			t.Errorf("bundle %d differs: %v vs %v", i, bundles[i], bid.Bundles[i])
		}
	}
}

func TestBidTreeSingleBundleHasNoOneof(t *testing.T) {
	reg := resource.NewStandardRegistry("r1")
	bid := &core.Bid{User: "s", Limit: -5, Bundles: []resource.Vector{{-3, 0, 0}}}
	text := bidTree(reg, bid).String()
	if strings.Contains(text, "oneof") {
		t.Errorf("single-bundle bid rendered with oneof:\n%s", text)
	}
	if _, err := bidlang.Parse(text); err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
}

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
}
