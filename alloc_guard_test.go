package cellbe

// The tracing subsystem is specified as zero-cost when off: attaching no
// tracer must leave the EIB/MFC hot path's allocation count exactly where
// the BENCH_eib.json baseline pinned it. This test enforces that in plain
// `go test` runs (and CI), so a regression cannot hide until the next
// manual benchmark pass.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"cellbe/internal/cell"
	"cellbe/internal/perfctr"
	"cellbe/internal/sim"
)

func TestEIBSaturatedAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("full saturated run: skipped in -short mode")
	}
	data, err := os.ReadFile("BENCH_eib.json")
	if err != nil {
		t.Skipf("no baseline: %v (regenerate with go test -bench 'EIBSaturated|Sweep' -benchmem .)", err)
	}
	var all map[string]map[string]float64
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatalf("unparsable BENCH_eib.json: %v", err)
	}
	baseline, ok := all["EIBSaturated"]["allocs/op"]
	if !ok {
		t.Skip("baseline has no EIBSaturated allocs/op entry")
	}

	sc := saturatedScenario()
	perOp := testing.AllocsPerRun(1, func() {
		cfg := cell.DefaultConfig()
		cfg.Layout = cell.RandomLayout(3)
		sys := cell.New(cfg)
		if _, err := sc.Install(sys); err != nil {
			t.Fatal(err)
		}
		sys.Run()
	})
	// 2% + 16 allocs of slack absorbs runtime-version noise while still
	// catching any per-transfer or per-command regression (32768 transfers
	// per run: even +0.1 allocs/transfer would blow through this).
	limit := baseline*1.02 + 16
	if perOp > limit {
		t.Fatalf("untraced saturated run allocates %.0f allocs/op, baseline %.0f (limit %.0f): tracing hooks are no longer free when off",
			perOp, baseline, limit)
	}
}

// TestEIBSaturatedCounterGuard extends the zero-cost-when-off contract
// to the perf-counter subsystem: running the saturated benchmark
// scenario with a counter block attached must finish at the identical
// cycle with identical EIB statistics (counters observe arbitration,
// never participate in it), and the counters themselves must stay
// allocation-free — the counted run may allocate at most the one
// Counters block more than the bare run. The BENCH_eib.json baseline
// needs no update: with cycles and allocations unchanged, the recorded
// figures still describe the counters-off path exactly.
func TestEIBSaturatedCounterGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("full saturated run: skipped in -short mode")
	}
	sc := saturatedScenario()
	signature := func(counted bool) (string, float64) {
		var sig string
		perOp := testing.AllocsPerRun(1, func() {
			cfg := cell.DefaultConfig()
			cfg.Layout = cell.RandomLayout(3)
			sys := cell.New(cfg)
			if counted {
				sys.SetPerf(&perfctr.Counters{})
			}
			if _, err := sc.Install(sys); err != nil {
				t.Fatal(err)
			}
			sys.Run()
			st := sys.Bus.Stats()
			sig = fmt.Sprintf("now=%d transfers=%d local=%d bytes=%d cmds=%d busy=%v wait=%d",
				sys.Eng.Now(), st.Transfers, st.LocalTransfers, st.Bytes, st.Commands, st.BusyCycles, st.WaitCycles)
		})
		return sig, perOp
	}
	bare, bareAllocs := signature(false)
	counted, countedAllocs := signature(true)
	if bare != counted {
		t.Errorf("counters perturbed the simulation\n bare:    %s\n counted: %s", bare, counted)
	}
	// One Counters block plus generous runtime noise; any per-transfer
	// counter allocation would add tens of thousands (32768 transfers).
	if countedAllocs > bareAllocs+16 {
		t.Errorf("counted run allocates %.0f vs bare %.0f: counter hooks allocate on the hot path", countedAllocs, bareAllocs)
	}
}

// TestEngineAllocGuard pins the scheduler's own allocation budget: one
// warmed EventChurn op (BenchmarkEngine's workload) must stay at the
// handful of allocations the BENCH_eib.json baseline recorded — the
// process spawn plus rare wheel-bucket first touches. Wheel scheduling,
// same-cycle dispatch and process wakeups themselves must contribute
// nothing, so even a single new allocation on a per-event path trips this
// immediately (an op fires ~2k events).
func TestEngineAllocGuard(t *testing.T) {
	data, err := os.ReadFile("BENCH_eib.json")
	if err != nil {
		t.Skipf("no baseline: %v (regenerate with go test ./internal/sim -bench Engine)", err)
	}
	var all map[string]map[string]float64
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatalf("unparsable BENCH_eib.json: %v", err)
	}
	baseline, ok := all["Engine"]["allocs/op"]
	if !ok {
		t.Skip("baseline has no Engine allocs/op entry")
	}

	// Warm until the wheel reaches steady state. Bucket backings are
	// allocated on first touch and retained, and the churn's far events walk
	// a new higher-level bucket index every op, so it takes a full 64-index
	// lap (not one op) before scheduling stops faulting in fresh backings —
	// the benchmark baseline was likewise recorded after thousands of ops.
	e := sim.NewEngine()
	for i := 0; i < 64; i++ {
		sim.EventChurn(e, sim.ChurnRounds)
	}
	perOp := testing.AllocsPerRun(10, func() { sim.EventChurn(e, sim.ChurnRounds) })
	limit := baseline + 8
	if perOp > limit {
		t.Fatalf("engine churn allocates %.1f allocs/op, baseline %.0f (limit %.0f): a scheduler hot path started allocating",
			perOp, baseline, limit)
	}
}

// TestMemoryPathAllocGuard holds the memory path to its per-line budget:
// a cold point of a memory-bound kind (boot, install, run, release, as a
// sweep's cold path does it) may allocate for setup, but nothing per
// line access, per bank request, per RAM page or per interpreter step.
// Each shape below moves over a thousand lines through XDR, so a single
// allocation per access (a closure, a freshly made page) blows through
// the limit at once.
func TestMemoryPathAllocGuard(t *testing.T) {
	const limit = 3000
	shapes := []cell.Scenario{
		{Kind: "mem", SPEs: 8, Chunk: 4096, Volume: 32 << 10, Op: "copy"},
		{Kind: "gups", SPEs: 8, Chunk: 64, Volume: 32 << 10, Op: "both"},
		{Kind: "stream", SPEs: 8, Chunk: 4096, Volume: 32 << 10, Op: "triad"},
	}
	for _, sc := range shapes {
		point := func() {
			sys := cell.New(cell.DefaultConfig())
			defer sys.Release()
			sys.SetPerf(&perfctr.Counters{})
			if _, err := sc.Install(sys); err != nil {
				t.Fatal(err)
			}
			if err := sys.RunChecked(0); err != nil {
				t.Fatal(err)
			}
		}
		point() // fill the buffer pools
		perOp := testing.AllocsPerRun(3, point)
		t.Logf("cold %s/%s point: %.0f allocs", sc.Kind, sc.Op, perOp)
		if perOp > limit {
			t.Errorf("cold %s/%s point allocates %.0f times, limit %d: the memory path allocates per access",
				sc.Kind, sc.Op, perOp, limit)
		}
	}
}
