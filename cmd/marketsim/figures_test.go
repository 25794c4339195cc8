package main

import (
	"bytes"
	"strings"
	"testing"

	"clustermarket/internal/sim"
)

func smallCfg() sim.Config {
	return sim.Config{
		Seed:               5,
		Clusters:           6,
		MachinesPerCluster: 8,
		Teams:              20,
	}
}

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
		if err := figures(&buf, c.what, smallCfg(), 2); err != nil {
			t.Fatalf("%s: %v", c.what, err)
		}
		if !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s output missing %q", c.what, c.want)
		}
	}
}

func TestFiguresScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep")
	}
	var buf bytes.Buffer
	if err := figures(&buf, "scaling", smallCfg(), 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "linear fit") {
		t.Error("scaling output missing fit")
	}
}

func TestFiguresUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := figures(&buf, "nope", smallCfg(), 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestFiguresAll also pins that the figures sharing one auction sequence
// print what each prints alone.
func TestFiguresAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	var buf bytes.Buffer
	if err := figures(&buf, "all", smallCfg(), 2); err != nil {
		t.Fatal(err)
	}
	all := buf.String()
	for _, want := range []string{"FIG2", "FIG6", "FIG7", "TABLE I", "SCALING", "BASELINE", "MIGRATION", "CLOCK"} {
		if !strings.Contains(all, want) {
			t.Errorf("all output missing %q", want)
		}
	}
	for _, what := range []string{"fig6", "fig7", "table1", "migration"} {
		var one bytes.Buffer
		if err := figures(&one, what, smallCfg(), 2); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(all, one.String()) {
			t.Errorf("%s alone differs from its section of -run all:\n%s", what, one.String())
		}
	}
}
