package scenario

import (
	"testing"

	"clustermarket/internal/telemetry"
)

// drainRun runs the scenario with a firehose subscriber attached and
// returns the live report plus the full event stream. The subscriber's
// buffer is sized far above any catalog run's event volume, and the
// test fails if even one event was dropped: reconstruction is only
// meaningful over a complete stream.
func drainRun(t *testing.T, kind string, sc *Scenario, cfg Config) (*Report, []telemetry.Event) {
	t.Helper()
	fire := telemetry.NewFirehose()
	sub := fire.Subscribe(1 << 16)
	cfg.Telemetry = fire

	b, err := NewBackend(kind, cfg)
	if err != nil {
		t.Fatalf("NewBackend(%s): %v", kind, err)
	}
	defer b.Close()
	rep, err := Run(sc, b, cfg)
	if err != nil {
		t.Fatalf("Run(%s, %s): %v", sc.Name, kind, err)
	}
	sub.Close()
	var events []telemetry.Event
	for ev := range sub.C {
		events = append(events, ev)
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("subscriber dropped %d events; reconstruction needs the complete stream", d)
	}
	if len(events) == 0 {
		t.Fatal("firehose produced no events")
	}
	return rep, events
}

// TestFingerprintReconstructibleFromFirehose is the telemetry pipeline's
// losslessness proof: for every catalog scenario, on both backends, the
// report rebuilt from the firehose stream alone must fingerprint
// bit-identically to the live run's, with no journal attached (telemetry
// must not depend on the WAL).
func TestFingerprintReconstructibleFromFirehose(t *testing.T) {
	for _, sc := range Catalog() {
		for _, kind := range backendKinds {
			t.Run(sc.Name+"/"+kind, func(t *testing.T) {
				cfg := Config{Seed: 42, Epochs: 6}
				rep, events := drainRun(t, kind, sc, cfg)
				rec, err := ReconstructReport(sc.Name, kind, cfg.Seed, events)
				if err != nil {
					t.Fatalf("ReconstructReport: %v", err)
				}
				if got, want := rec.Fingerprint(), rep.Fingerprint(); got != want {
					t.Errorf("reconstructed fingerprint diverges\n got %s\nwant %s\nreconstructed: %+v\nlive: %+v",
						got, want, rec.Epochs, rep.Epochs)
				}
				t.Logf("%s fingerprint %s", t.Name(), rep.Fingerprint()[:16])
			})
		}
	}
}

// TestFirehoseCoexistsWithJournal runs the crash-recovery scenario —
// journaled, with a mid-run kill and WAL resurrection — under a
// firehose subscriber. The stream must still reconstruct the live
// fingerprint: replay publishes nothing, so the resurrected backend's
// stream continues seamlessly from the pre-crash events.
func TestFirehoseCoexistsWithJournal(t *testing.T) {
	sc, err := Lookup("crash-recovery")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"exchange", "federation"} {
		t.Run(kind, func(t *testing.T) {
			cfg := Config{Seed: 7, Epochs: 6, JournalDir: t.TempDir(), CrashEpoch: 3}
			rep, events := drainRun(t, kind, sc, cfg)
			rec, err := ReconstructReport(sc.Name, kind, cfg.Seed, events)
			if err != nil {
				t.Fatalf("ReconstructReport: %v", err)
			}
			if got, want := rec.Fingerprint(), rep.Fingerprint(); got != want {
				t.Errorf("reconstructed fingerprint diverges across a crash\n got %s\nwant %s", got, want)
			}
		})
	}
}
