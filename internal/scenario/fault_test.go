package scenario

import (
	"testing"

	"clustermarket/internal/fault"
)

// runFaulted drives one scenario on a journaled backend with the given
// injector armed, closing the backend's journals before returning.
func runFaulted(t *testing.T, name, kind string, cfg Config) *Report {
	t.Helper()
	sc, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rep, err := Run(sc, b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFaultScenariosFingerprintMatchFaultFree is the tentpole
// acceptance gate: disk-fault and partition-storm, with their scripted
// fault schedules actually injected under a journaled backend, must
// fingerprint-match the fault-free in-memory run bit for bit — every
// scripted burst stays within the bounded inline retries, so faults
// that heal are invisible to market outcomes — with the invariant
// kernel clean after every epoch.
func TestFaultScenariosFingerprintMatchFaultFree(t *testing.T) {
	cases := []struct {
		scenario string
		kind     string
		// seam reports whether this kind exposes a seam for the
		// scenario's scripted ops: the exchange kind's one market is
		// named outside r1…rN, so partition-storm's region-scoped windows
		// never reach it and partition-storm/exchange must inject nothing.
		seam bool
	}{
		{"disk-fault", "exchange", true},
		{"disk-fault", "federation", true},
		{"partition-storm", "exchange", false},
		{"partition-storm", "federation", true},
	}
	for _, tc := range cases {
		t.Run(tc.scenario+"/"+tc.kind, func(t *testing.T) {
			base := runNamed(t, tc.scenario, tc.kind, Config{Seed: 42})
			inj := fault.New()
			cfg := Config{Seed: 42, JournalDir: t.TempDir(), Injector: inj}
			rep := runFaulted(t, tc.scenario, tc.kind, cfg)
			for _, v := range rep.Violations {
				t.Errorf("invariant violated: %s", v)
			}
			if got, want := rep.Fingerprint(), base.Fingerprint(); got != want {
				t.Errorf("faulted run fingerprint %s, fault-free baseline %s", got[:16], want[:16])
			}
			if tc.seam && inj.Injected() == 0 {
				t.Error("scripted fault schedule injected nothing — the seam is not wired")
			}
			if !tc.seam && inj.Injected() != 0 {
				t.Errorf("injected %d faults on a backend with no seam for them", inj.Injected())
			}
		})
	}
}

// TestChaosSameSeedBitIdentical pins the chaos-mode determinism
// contract: two runs under the same seeded-random fault schedule must
// fingerprint-match each other. A chaos schedule may change outcomes
// relative to the fault-free run (lost gossip quotes, opened breakers),
// but it must do so identically on every rerun.
func TestChaosSameSeedBitIdentical(t *testing.T) {
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) {
			var prints [2]string
			var injected [2]uint64
			for i := 0; i < 2; i++ {
				inj := fault.NewChaos(99)
				cfg := Config{Seed: 42, JournalDir: t.TempDir(), Injector: inj}
				rep := runFaulted(t, "churn", kind, cfg)
				for _, v := range rep.Violations {
					t.Errorf("leg %d: invariant violated: %s", i, v)
				}
				prints[i] = rep.Fingerprint()
				injected[i] = inj.Injected()
			}
			if prints[0] != prints[1] {
				t.Errorf("chaos legs diverged: %s vs %s", prints[0][:16], prints[1][:16])
			}
			if injected[0] != injected[1] {
				t.Errorf("chaos legs injected %d vs %d faults", injected[0], injected[1])
			}
			// The federation kind has a seam for every op the chaos
			// schedule can arm, so a whole run without one injection means
			// the schedule is not firing.
			if kind == "federation" && injected[0] == 0 {
				t.Error("chaos schedule injected nothing")
			}
		})
	}
}
