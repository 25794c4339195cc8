package main

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
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
	}
	for _, args := range cases {
		if code := runSoak(args, devnull, devnull); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitUsage)
		}
	}
}

func TestCrashRecoverySoak(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	args := []string{"-scenario", "crash-recovery", "-backend", "both", "-seed", "42",
		"-journal-dir", t.TempDir(), "-crash-epoch", "4"}
	if code := runSoak(args, devnull, devnull); code != exitOK {
		t.Fatalf("exit code = %d, want %d", code, exitOK)
	}
}

func TestChaosSoak(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	// The scripted fault scenarios under a seeded chaos schedule: both
	// chaos legs must fingerprint-match each other and the invariant
	// kernel must hold under fire, on both backends.
	for _, sc := range []string{"disk-fault", "partition-storm"} {
		args := []string{"-scenario", sc, "-backend", "both", "-seed", "42",
			"-chaos", "-chaos-seed", "7", "-epochs", "4", "-journal-dir", t.TempDir()}
		if code := runSoak(args, devnull, devnull); code != exitOK {
			t.Fatalf("%s: exit code = %d, want %d", sc, code, exitOK)
		}
	}
}

func TestChaosRequiresJournalDir(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if code := runSoak([]string{"-chaos"}, devnull, devnull); code != exitUsage {
		t.Fatalf("exit code = %d, want %d", code, exitUsage)
	}
}

func TestCrashEpochRequiresJournalDir(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	if code := runSoak([]string{"-crash-epoch", "3"}, devnull, devnull); code != exitUsage {
		t.Fatalf("exit code = %d, want %d", code, exitUsage)
	}
}

func TestTelemetrySoak(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	// Telemetry on top of the journaled crash run: the stream
	// reconstruction must match for the in-memory baseline, the journaled
	// rerun, and the crash-recovered rerun alike.
	args := []string{"-scenario", "crash-recovery", "-backend", "both", "-seed", "42",
		"-telemetry", "-journal-dir", t.TempDir(), "-crash-epoch", "3"}
	if code := runSoak(args, devnull, devnull); code != exitOK {
		t.Fatalf("exit code = %d, want %d", code, exitOK)
	}
}

// TestTelemetrySubscriptionClosedOnFailure pins the telemetry soak's
// cleanup: when a journaled rerun's backend refuses to build (its
// directory already holds a journal), the run's firehose subscription
// and its drain goroutine are released, not leaked.
func TestTelemetrySubscriptionClosedOnFailure(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	dir := t.TempDir()
	args := []string{"-scenario", "diurnal", "-backend", "exchange", "-epochs", "1", "-journal-dir", dir}
	if code := runSoak(args, devnull, devnull); code != exitOK {
		t.Fatalf("populating run: exit code = %d, want %d", code, exitOK)
	}
	if _, err := os.Stat(filepath.Join(dir, "diurnal-exchange")); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if code := runSoak(append(args, "-telemetry"), devnull, devnull); code != exitUsage {
		t.Fatalf("rerun on a populated journal dir: exit code = %d, want %d", code, exitUsage)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines = %d after the failed run, %d before: the telemetry drain leaked", n, before)
	}
}
