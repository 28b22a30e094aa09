package cell

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cellbe/internal/fault"
	"cellbe/internal/sim"
)

// TestWedgeScenarioDiagnostic drives the deliberately deadlocked scenario
// and checks the watchdog's full contract: a typed *sim.DeadlockError
// naming every stuck SPE process.
func TestWedgeScenarioDiagnostic(t *testing.T) {
	sys := New(DefaultConfig())
	sc := Scenario{Kind: "wedge", SPEs: 4}
	if _, err := sc.Install(sys); err != nil {
		t.Fatalf("install: %v", err)
	}
	err := sys.RunChecked(0)
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *sim.DeadlockError, got %v", err)
	}
	for _, name := range []string{"spe0", "spe1", "spe2", "spe3"} {
		found := false
		for _, s := range de.Stuck {
			if s == name {
				found = true
			}
		}
		if !found {
			t.Errorf("stuck list %v missing %s", de.Stuck, name)
		}
	}
}

// TestCycleBudgetDiagnostic wedges a healthy scenario on an impossible
// cycle budget and checks the MFC detail lines reach the diagnostic.
func TestCycleBudgetDiagnostic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 5000
	sys := New(cfg)
	sc := Scenario{Kind: "cycle", SPEs: 4, Chunk: 4096, Volume: 1 << 20}
	if _, err := sc.Install(sys); err != nil {
		t.Fatalf("install: %v", err)
	}
	err := sys.RunChecked(0) // 0 falls back to cfg.MaxCycles
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *sim.DeadlockError, got %v", err)
	}
	if !strings.Contains(err.Error(), "MFC") {
		t.Fatalf("diagnostic lacks MFC detail lines:\n%v", err)
	}
}

// TestPatternLaneWedgeDiagnostic stops the workload interpreter on an
// impossible cycle budget: every lane is a state machine, not a spawned
// process, and must still be named in the diagnostic as spe<N> with the
// park-site note it is blocked at.
func TestPatternLaneWedgeDiagnostic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 3000
	sys := New(cfg)
	sc := Scenario{Kind: "gups", SPEs: 8, Chunk: 64, Volume: 32 << 10, Op: "both"}
	if _, err := sc.Install(sys); err != nil {
		t.Fatalf("install: %v", err)
	}
	err := sys.RunChecked(0)
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("want *sim.DeadlockError, got %v", err)
	}
	notes := []string{noteDMAIssue, noteDMAQfull, noteTagChannel, noteTagWait}
	for i := 0; i < sc.SPEs; i++ {
		found := false
		for _, s := range de.Stuck {
			for _, n := range notes {
				if s == fmt.Sprintf("spe%d (%s)", i, n) {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("stuck list %v lacks spe%d with a park-site note", de.Stuck, i)
		}
	}
}

// TestFaultyRunConserves checks the conservation invariant under heavy
// fault injection: faults delay bytes but must never lose them, so
// RunChecked (which verifies per-tag requested == delivered at teardown)
// must succeed, with a fault count proving injection actually happened.
func TestFaultyRunConserves(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = fault.Config{
		MFCRetryRate:  0.05,
		XDRStallRate:  0.05,
		EIBSlowRate:   0.05,
		EIBOutageRate: 0.05,
		DoneDelayRate: 0.05,
	}
	cfg.FaultSeed = 11
	sys := New(cfg)
	sc := Scenario{Kind: "mem", SPEs: 4, Chunk: 4096, Volume: 1 << 20, Op: "copy"}
	if _, err := sc.Install(sys); err != nil {
		t.Fatalf("install: %v", err)
	}
	if err := sys.RunChecked(0); err != nil {
		t.Fatalf("faulty run must still conserve and complete: %v", err)
	}
	if sys.Faults().Stats().Total() == 0 {
		t.Fatal("no faults injected at 5% rates — injection is not wired")
	}
}

// TestFaultyRunSlower sanity-checks graceful degradation: the same
// scenario takes longer under injected faults than without them.
func TestFaultyRunSlower(t *testing.T) {
	run := func(fc fault.Config) sim.Time {
		cfg := DefaultConfig()
		cfg.Faults = fc
		cfg.FaultSeed = 3
		sys := New(cfg)
		sc := Scenario{Kind: "pair", SPEs: 2, Chunk: 4096, Volume: 1 << 20}
		if _, err := sc.Install(sys); err != nil {
			t.Fatalf("install: %v", err)
		}
		if err := sys.RunChecked(0); err != nil {
			t.Fatalf("run: %v", err)
		}
		return sys.Eng.Now()
	}
	healthy := run(fault.Config{})
	faulty := run(fault.Config{MFCRetryRate: 0.1, EIBSlowRate: 0.1})
	if faulty <= healthy {
		t.Fatalf("faulty run (%d cycles) not slower than healthy (%d cycles)", faulty, healthy)
	}
}

// TestTryAllocErrors pins the typed-error path for user-sized allocations.
func TestTryAllocErrors(t *testing.T) {
	sys := New(DefaultConfig())
	if _, err := sys.TryAlloc(0, 128); err == nil {
		t.Error("zero-size allocation must fail")
	}
	if _, err := sys.TryAlloc(sys.Config().Mem.TotalBytes+1, 128); err == nil {
		t.Error("oversize allocation must fail")
	}
	// An oversize mem scenario surfaces it as a clean install error.
	sc := Scenario{Kind: "mem", SPEs: 8, Chunk: 4096, Volume: 1 << 40, Op: "get"}
	if _, err := sc.Install(sys); err == nil || strings.Contains(err.Error(), "panic") {
		t.Errorf("oversize volume should fail cleanly, got %v", err)
	}
}
