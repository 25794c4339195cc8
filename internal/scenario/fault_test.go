package scenario

import (
	"testing"

	"clustermarket/internal/fault"
	"clustermarket/internal/federation"
	"clustermarket/internal/telemetry"
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

// TestFaultScenariosFingerprintMatchFaultFree is the journaled-rerun
// and faults-heal gate, on every catalog scenario and both backends:
// the run journaled, with a fault injector armed so the scripted
// schedules of disk-fault and partition-storm actually fire, must
// fingerprint-match the fault-free in-memory run bit for bit, with the
// invariant kernel clean after every epoch. Every scripted burst stays
// within the bounded inline retries, so faults that heal are invisible
// to market outcomes, and journaling alone changes nothing.
func TestFaultScenariosFingerprintMatchFaultFree(t *testing.T) {
	// The rows whose backend exposes a seam for the scenario's scripted
	// ops. The exchange kind's one market is named outside r1…rN, so
	// partition-storm's region-scoped windows never reach it; scenarios
	// with no schedule inject nothing anywhere.
	seams := map[string]bool{
		"disk-fault/exchange":        true,
		"disk-fault/federation":      true,
		"partition-storm/federation": true,
	}
	for _, sc := range Catalog() {
		for _, kind := range backendKinds {
			row := sc.Name + "/" + kind
			t.Run(row, func(t *testing.T) {
				t.Parallel() // journaled runs wait on fsync
				base := runNamed(t, sc.Name, kind, Config{Seed: 42})
				inj := fault.New()
				cfg := Config{Seed: 42, JournalDir: t.TempDir(), Injector: inj}
				rep := runFaulted(t, sc.Name, kind, cfg)
				for _, v := range rep.Violations {
					t.Errorf("invariant violated: %s", v)
				}
				if got, want := rep.Fingerprint(), base.Fingerprint(); got != want {
					t.Errorf("faulted run fingerprint %s, fault-free baseline %s", got[:16], want[:16])
				}
				if seams[row] && inj.Injected() == 0 {
					t.Error("scripted fault schedule injected nothing — the seam is not wired")
				}
				if !seams[row] && inj.Injected() != 0 {
					t.Errorf("injected %d faults on a row with no seam for them", inj.Injected())
				}
				t.Logf("%s fingerprint %s", t.Name(), rep.Fingerprint()[:16])
			})
		}
	}
}

// TestChaosSameSeedBitIdentical pins the chaos-mode determinism
// contract on every catalog scenario and both backends: two journaled
// runs under the same seeded-random fault schedule must fingerprint-match
// each other and keep the invariant kernel clean. A chaos schedule may
// change outcomes relative to the fault-free run (lost gossip quotes,
// skipped settlements), but it must do so identically on every rerun. Each
// leg also carries a never-drained one-slot telemetry subscriber: the
// run must finish with it dropping events, because publishers never
// block on a stalled consumer.
func TestChaosSameSeedBitIdentical(t *testing.T) {
	for _, kind := range backendKinds {
		t.Run(kind, func(t *testing.T) {
			chaosLegs(t, "churn", kind, 99, 0)
			for _, sc := range Catalog() {
				t.Run(sc.Name, func(t *testing.T) {
					t.Parallel() // journaled runs wait on fsync
					chaosLegs(t, sc.Name, kind, 7, 6)
				})
			}
		})
	}
}

// chaosLegs runs one chaos row: the scenario twice, journaled, for
// epochs epochs (0: its default) under fault.NewChaos(chaosSeed).
func chaosLegs(t *testing.T, name, kind string, chaosSeed int64, epochs int) {
	t.Helper()
	var prints [2]string
	var injected [2]uint64
	for i := range prints {
		inj := fault.NewChaos(chaosSeed)
		fire := telemetry.NewFirehose()
		inj.AttachTelemetry(fire)
		stalled := fire.Subscribe(1)
		cfg := Config{Seed: 42, Epochs: epochs, JournalDir: t.TempDir(), Injector: inj, Telemetry: fire}
		rep := runFaulted(t, name, kind, cfg)
		stalled.Close()
		for _, v := range rep.Violations {
			t.Errorf("leg %d: invariant violated: %s", i, v)
		}
		if stalled.Dropped() == 0 {
			t.Errorf("leg %d: the stalled subscriber dropped nothing", i)
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
	if injected[0] == 0 {
		t.Error("chaos schedule injected nothing")
	}
	t.Logf("%s chaos seed %d fingerprint %s", t.Name(), chaosSeed, prints[0][:16])
}

// TestSettleOutlastsRouterWALFault: router-WAL faults that outlast the
// journal's heal loop during one Settle do not fail it, and each market
// runs exactly one auction that epoch. The router's failed writes are
// its journal's to heal; they are no reason to replay a settlement that
// ran.
func TestSettleOutlastsRouterWALFault(t *testing.T) {
	inj := fault.New()
	b, err := NewBackend("federation", Config{Seed: 42, JournalDir: t.TempDir(), Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.OpenAccount("team"); err != nil {
		t.Fatal(err)
	}
	for _, r := range b.Regions() {
		if _, err := b.SubmitProduct("team", "batch-compute", 1, b.ClustersOf(r)[:1], 500); err != nil {
			t.Fatal(err)
		}
	}
	auctions := func() []int {
		var n []int
		for _, m := range b.markets {
			n = append(n, b.fed.Region(m).Exchange().AuctionCount())
		}
		return n
	}
	before := auctions()
	inj.Arm([]fault.Window{{Op: fault.OpDiskWrite, Scope: "/" + federation.RouterDir + "/", Kind: fault.EIO, Count: 12}})
	if err := b.Settle(nil); err != nil {
		t.Fatalf("Settle with a failing router WAL: %v", err)
	}
	if m := b.fed.Journal().Metrics(); m.Failures == 0 {
		t.Fatal("the router WAL never failed past its heal loop")
	}
	for i, n := range auctions() {
		if n != before[i]+1 {
			t.Errorf("market %s ran %d auctions this epoch, want 1", b.markets[i], n-before[i])
		}
	}
	for _, v := range b.Check() {
		t.Errorf("invariant violated: %s", v)
	}
}
