package main

import (
	"bytes"
	"strings"
	"testing"

	"clustermarket/internal/scenario"
)

func smallCfg() scenario.Config { return scenario.Config{Seed: 5, Epochs: 2} }

func TestFiguresSingle(t *testing.T) {
	cases := []struct {
		what string
		want string
	}{
		{"fig2", "Figure 2"},
		{"fig6", "Figure 6"},
		{"fig7", "Figure 7"},
		{"table1", "Table I"},
		{"baseline", "Allocation mechanism comparison"},
		{"migration", "Demand migration"},
		{"clockprog", "Clock progression"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := figures(&buf, c.what, smallCfg()); err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s output missing %q", c.what, c.want)
		}
	}
}

func TestFiguresUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := figures(&buf, "nope", smallCfg()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestFiguresAll also pins that the figures sharing one run print what
// each prints alone.
func TestFiguresAll(t *testing.T) {
	var buf bytes.Buffer
	if err := figures(&buf, "all", smallCfg()); err != nil {
		t.Fatal(err)
	}
	all := buf.String()
	for _, want := range []string{"FIG2", "FIG6", "FIG7", "TABLE I", "BASELINE", "MIGRATION", "CLOCK"} {
		if !strings.Contains(all, want) {
			t.Errorf("all output missing %q", want)
		}
	}
	for _, what := range []string{"fig6", "fig7", "table1", "baseline", "migration", "clockprog"} {
		var one bytes.Buffer
		if err := figures(&one, what, smallCfg()); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(all, one.String()) {
			t.Errorf("%s alone differs from its section of -run all:\n%s", what, one.String())
		}
	}
}
