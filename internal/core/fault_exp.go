package core

import (
	"cellbe/internal/cell"
	"cellbe/internal/fault"
	"cellbe/internal/stats"
)

// FaultRatesBp is the injected fault probability sweep of the fault-sweep
// experiment, in basis points (1 bp = 0.01%). The range spans "healthy"
// through "one fault every ~20 commands", which is where the canonical
// scenarios visibly degrade without wedging.
var FaultRatesBp = []int{0, 10, 50, 100, 250, 500}

// faultScenarios are the four canonical workloads the degradation curves
// are measured on (the same set the acceptance run drives).
var faultScenarios = []cell.Scenario{
	{Kind: "pair", SPEs: 2, Chunk: 4096, Op: "get"},
	{Kind: "couples", SPEs: 8, Chunk: 4096, Op: "get"},
	{Kind: "cycle", SPEs: 8, Chunk: 4096, Op: "get"},
	{Kind: "mem", SPEs: 8, Chunk: 4096, Op: "get"},
}

// faultConfigAt scales the combined fault mix to a single probability knob:
// every fault class fires with the same per-decision rate, so the x axis
// reads "probability that any given decision point misbehaves".
func faultConfigAt(bp int) fault.Config {
	rate := float64(bp) / 10000
	return fault.Config{
		MFCRetryRate:  rate,
		XDRStallRate:  rate,
		EIBSlowRate:   rate,
		EIBOutageRate: rate,
		DoneDelayRate: rate,
	}
}

// FaultSweep measures aggregate bandwidth of the four canonical scenarios
// as the injected fault rate rises: graceful degradation made visible. At
// rate 0 the curves reproduce the healthy figures; every faulty point runs
// under the watchdog and the conservation check, so a fault model that
// loses bytes or wedges a kernel fails the experiment instead of printing
// a quietly wrong curve.
func FaultSweep(p Params) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	res := &Result{
		Name:   "fault-sweep",
		Title:  "Extension: bandwidth under injected faults (MFC retry, XDR stall, EIB slow/outage, late completion)",
		XLabel: "fault rate (basis points)",
		YLabel: "GB/s",
	}
	for _, sc := range faultScenarios {
		sc := sc
		series := stats.NewSeries(sc.Kind, FaultRatesBp)
		for _, bp := range FaultRatesBp {
			bp := bp
			addRuns(p, series, bp, func(run int) float64 {
				return runFaultPoint(p, run, sc, bp)
			})
		}
		res.Curves = append(res.Curves, CurveFromSeries(series))
	}
	return res, nil
}

// runFaultPoint runs one scenario under one fault rate and returns the
// aggregate GB/s. The fault stream is seeded from the layout seed, so run r
// sweeps fault patterns alongside layouts and the whole experiment stays
// byte-reproducible.
func runFaultPoint(p Params, run int, sc cell.Scenario, bp int) float64 {
	cfg := p.config()
	cfg.Layout = cell.RandomLayout(p.FirstSeed + int64(run))
	cfg.Faults = faultConfigAt(bp)
	cfg.FaultSeed = p.FirstSeed + int64(run)
	sc.Volume = p.BytesPerSPE
	return runScenario(cell.New(cfg), sc)
}
