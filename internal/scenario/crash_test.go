package scenario

import (
	"testing"

	"clustermarket/internal/telemetry"
)

// TestCrashRecoveryFingerprintMatch is the durability acceptance test:
// on both backends, the crash-recovery scenario must produce the same
// bit-exact fingerprint three ways — in-memory, journaled but
// uninterrupted, and journaled with a mid-run kill-and-resurrect — and
// every run must be invariant-clean. A single ulp of drift anywhere in
// the recovered books (prices, premiums, balances) breaks the hash.
func TestCrashRecoveryFingerprintMatch(t *testing.T) {
	sc, err := Lookup("crash-recovery")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) {
			run := func(label string, cfg Config) string {
				t.Helper()
				b, err := NewBackend(kind, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				defer b.Close()
				rep, err := Run(sc, b, cfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(rep.Violations) > 0 {
					t.Fatalf("%s: %d invariant violations; first: %s",
						label, len(rep.Violations), rep.Violations[0])
				}
				return rep.Fingerprint()
			}

			base := Config{Seed: 42}
			fpMem := run("in-memory", base)

			durable := base
			durable.JournalDir = t.TempDir()
			fpDurable := run("journaled", durable)

			crashed := durable
			crashed.JournalDir = t.TempDir()
			crashed.CrashEpoch = 4
			fpCrashed := run("journaled+crashed", crashed)

			if fpDurable != fpMem {
				t.Errorf("journaling alone changed the trajectory:\nin-memory: %s\njournaled: %s", fpMem, fpDurable)
			}
			if fpCrashed != fpMem {
				t.Errorf("kill-and-resurrect diverged from the uninterrupted run:\nuninterrupted: %s\ncrashed:       %s", fpMem, fpCrashed)
			}
		})
	}
}

// TestCrashEpochRequiresJournal pins the failure modes of a scripted
// crash that cannot happen: with nothing on disk to recover from, or at
// an epoch the run never reaches (epochs count from 0), the run must
// fail loudly before epoch 0 — not limp on with an empty market, nor
// pass a crash check with no crash in it.
func TestCrashEpochRequiresJournal(t *testing.T) {
	sc, err := Lookup("crash-recovery")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		cfg     Config
		journal bool
	}{
		{"no journal", Config{CrashEpoch: 2}, false},
		{"at the default length", Config{CrashEpoch: sc.Epochs}, true},
		{"far past the end", Config{CrashEpoch: 20}, true},
		{"at an Epochs override", Config{Epochs: 4, CrashEpoch: 4}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Seed = 7
			if tc.journal {
				cfg.JournalDir = t.TempDir()
			}
			// A subscriber makes the firehose count what the run publishes.
			cfg.Telemetry = telemetry.NewFirehose()
			defer cfg.Telemetry.Subscribe(1).Close()
			b, err := NewBackend("exchange", cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			before := cfg.Telemetry.Published()
			if _, err := Run(sc, b, cfg); err == nil {
				t.Fatalf("CrashEpoch %d did not fail the run", cfg.CrashEpoch)
			}
			if n := cfg.Telemetry.Published() - before; n != 0 {
				t.Errorf("the run published %d events before failing; want it refused before epoch 0", n)
			}
		})
	}
}
