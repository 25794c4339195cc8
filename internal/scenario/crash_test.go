package scenario

import "testing"

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

// TestCrashEpochRequiresJournal pins the failure mode: a scripted crash
// on a backend with nothing on disk must fail the run loudly, not limp
// on with an empty market.
func TestCrashEpochRequiresJournal(t *testing.T) {
	sc, err := Lookup("crash-recovery")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 7, CrashEpoch: 2}
	b, err := NewBackend("exchange", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := Run(sc, b, cfg); err == nil {
		t.Fatal("CrashEpoch without JournalDir did not fail the run")
	}
}
