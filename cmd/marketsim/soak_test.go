package main

import (
	"os"
	"testing"
)

func TestRunAllScenarios(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if code := runSoak([]string{"-scenario", "all", "-backend", "both", "-epochs", "4", "-v"}, devnull, devnull); code != exitOK {
		t.Fatalf("exit code = %d, want %d", code, exitOK)
	}
}

func TestRunSingleScenario(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if code := runSoak([]string{"-scenario", "trader-storm", "-backend", "exchange", "-seed", "7"}, devnull, devnull); code != exitOK {
		t.Fatalf("exit code = %d, want %d", code, exitOK)
	}
}

func TestUsageErrors(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	cases := [][]string{
		{"-scenario", "no-such"},
		{"-backend", "no-such"},
		{"-bogus-flag"},
		{"stray-argument"},
		{"-epochs", "-1"},
		// The journaled, crash, chaos and stream checks are
		// internal/scenario tests, not soak flags.
		{"-journal-dir", "d"},
		{"-crash-epoch", "4"},
		{"-telemetry"},
		{"-chaos"},
		{"-chaos-seed", "7"},
	}
	for _, args := range cases {
		if code := runSoak(args, devnull, devnull); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitUsage)
		}
	}
}
