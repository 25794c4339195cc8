package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUsageExitCodes pins what the dispatcher and the new subcommands
// refuse: each case exits 1 with a message on stderr and writes nothing
// to stdout.
func TestUsageExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"no subcommand", nil, "usage: marketsim"},
		{"unknown subcommand", []string{"experiments"}, `unknown subcommand "experiments"`},
		{"figures zero auctions", []string{"figures", "-auctions", "0"}, "-auctions must be at least 1"},
		{"figures negative auctions", []string{"figures", "-run", "table1", "-auctions", "-2"}, "-auctions must be at least 1"},
		{"figures unknown experiment", []string{"figures", "-run", "nope"}, `unknown experiment "nope"`},
		{"figures stray argument", []string{"figures", "fig2"}, `unexpected argument "fig2"`},
		{"gen zero rounds", []string{"gen", "-rounds", "0"}, "-rounds must be at least 1"},
		{"gen removed flag", []string{"gen", "-clusters", "4"}, "flag provided but not defined"},
		{"clear removed flag", []string{"clear", "-alpha", "0.1"}, "flag provided but not defined"},
		{"soak removed flag", []string{"soak", "-regions", "4"}, "flag provided but not defined"},
		{"soak negative epochs", []string{"soak", "-epochs", "-3"}, "-epochs must not be negative"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, strings.NewReader(""), &stdout, &stderr); code != exitUsage {
				t.Errorf("exit code = %d, want %d", code, exitUsage)
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("stderr %q does not mention %q", stderr.String(), c.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty: %q", stdout.String())
			}
		})
	}
}

// TestGenPipesIntoClear runs the documented pipeline in process.
func TestGenPipesIntoClear(t *testing.T) {
	var bids, out, stderr bytes.Buffer
	if code := run([]string{"gen", "-seed", "7"}, nil, &bids, &stderr); code != exitOK {
		t.Fatalf("gen: exit code = %d: %s", code, stderr.String())
	}
	if code := run([]string{"clear"}, &bids, &out, &stderr); code != exitOK {
		t.Fatalf("clear: exit code = %d: %s", code, stderr.String())
	}
	for _, want := range []string{"Final uniform prices", "Settlement", "SYSTEM constraints (1)-(6) verified."} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("clear output missing %q", want)
		}
	}
}
