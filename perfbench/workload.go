package main

import (
	"math/rand"

	"cellbe/internal/cell"
	"cellbe/internal/core"
)

// workers is the simulation worker count of the in-process workloads,
// which also run on one P (see execute). On the two-vCPU benchmark
// machine, runs that used both vCPUs were two to six times noisier than
// runs on one. The count is fixed so results do not depend on nproc.
const workers = 1

// Request counts per second of --seconds. Each run sends a fixed number
// of requests, so every run's percentiles and peak RSS come from the same
// multiset of requests; the rates only size that number so that a run
// lasts about --seconds on a two-core machine.
const (
	eibJobsPerSecond   = 27
	memJobsPerSecond   = 37
	figRoundsPerSecond = 1.5 // a round is one request per paper experiment
)

// roundLen is how many consecutive requests of a workload carry its whole
// request mix once.
func roundLen(workload string) int {
	switch workload {
	case "sweep-eib":
		return len(eibTemplates)
	case "sweep-mem":
		return len(memTemplates)
	}
	return len(figExperiments) // paper-figs
}

// workloadNames lists the workloads, as BENCHMARK.json names them.
var workloadNames = []string{"sweep-eib", "sweep-mem", "paper-figs"}

// layoutSeed draws a layout seed. Seed 0 (the identity layout) is left
// out so every point samples a random layout, as the paper's runs do.
func layoutSeed(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<20) }

// eibTemplates are sweep-eib's job shapes: SPE-to-SPE DMA-elem sweeps of
// 8 SPEs, 128 KB per SPE, two chunk sizes each. All of them take the warm
// snapshot/clone path.
var eibTemplates = func() []core.SweepSpec {
	var out []core.SweepSpec
	for _, kind := range []string{"cycle", "couples", "pair"} {
		for _, chunks := range [][]int{{1024, 4096}, {2048, 8192}, {4096, 16384}} {
			out = append(out, core.SweepSpec{Scenario: kind, SPEs: 8, Chunks: chunks, Volume: 128 << 10})
		}
	}
	return out
}()

// memTemplates are sweep-mem's job shapes, sent in this fixed order: the
// SPE-to-memory kinds and the workload library, every one cold-booting
// its points, most of them on both XDR banks.
var memTemplates = []core.SweepSpec{
	{Scenario: "mem", SPEs: 8, Op: "get", Chunks: []int{4096}, Volume: 32 << 10},
	{Scenario: "mem", SPEs: 8, Op: "copy", Chunks: []int{4096}, Volume: 32 << 10},
	{Scenario: "mem", SPEs: 8, Op: "get", List: true, Chunks: []int{4096}, Volume: 32 << 10},
	{Scenario: "gups", SPEs: 8, Chunks: []int{64, 128}, Volume: 32 << 10},
	{Scenario: "stream", SPEs: 8, Op: "triad", Chunks: []int{4096}, Volume: 32 << 10},
	{Scenario: "md", SPEs: 8, Chunks: []int{4096}, Volume: 32 << 10},
	{Scenario: "qcd", SPEs: 8, Chunks: []int{4096}, Volume: 32 << 10},
}

// withSeeds returns a copy of spec sweeping enough fresh layout seeds to
// make the given number of grid points.
func withSeeds(spec core.SweepSpec, rng *rand.Rand, points int) core.SweepSpec {
	n := points / len(spec.Chunks)
	spec.Chunks = append([]int(nil), spec.Chunks...)
	spec.Seeds = nil
	for i := 0; i < n; i++ {
		spec.Seeds = append(spec.Seeds, layoutSeed(rng))
	}
	spec.Workers = workers
	return spec
}

// eibJobs is sweep-eib's request sequence: rounds of one job per
// template, each round in a seeded order, with seeded layouts. The class
// mix is the same for every seed; only order and layouts change.
func eibJobs(seed int64, n int) []core.SweepSpec {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]core.SweepSpec, 0, n)
	for len(jobs) < n {
		for _, i := range rng.Perm(len(eibTemplates)) {
			jobs = append(jobs, withSeeds(eibTemplates[i], rng, 4))
		}
	}
	return jobs[:n]
}

// memJobs is sweep-mem's request sequence: the templates in their fixed
// order, over and over, with seeded layouts.
func memJobs(seed int64, n int) []core.SweepSpec {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]core.SweepSpec, n)
	for i := range jobs {
		jobs[i] = withSeeds(memTemplates[i%len(memTemplates)], rng, 2)
	}
	return jobs
}

// figExperiments are paper-figs' registry experiments, one request each
// per round. There are seven, with clearly different run times, so the
// p50 rank falls in the middle of dma-latency's runs and the p90 rank
// inside ppe-mem's, not on the boundary between two experiments.
var figExperiments = []string{
	"ppe-l1", "ppe-mem", "stream", "dma-latency",
	"spe-cycle", "spe-pair-sync", "spe-couples-list",
}

// figRequest is one experiment run on one layout sample with reduced
// parameters.
type figRequest struct {
	Exp    string
	Params core.Params
}

func figParams(firstSeed int64) core.Params {
	p := core.DefaultParams()
	p.Runs = 1
	p.FirstSeed = firstSeed
	p.BytesPerSPE = 32 << 10
	p.PPEBytes = 32 << 10
	p.Elems = []int{8}
	p.Chunks = []int{1024, 16384}
	p.Syncs = []int{1, 16}
	p.SPESweep = []int{8}
	return p
}

// figRequests is paper-figs' request sequence: rounds of every experiment
// in a fixed order, each on a seeded layout.
func figRequests(seed int64, rounds int) []figRequest {
	rng := rand.New(rand.NewSource(seed))
	var out []figRequest
	for r := 0; r < rounds; r++ {
		for _, name := range figExperiments {
			p := figParams(layoutSeed(rng))
			if name == "spe-couples-list" {
				p.SPESweep = []int{4}
			}
			out = append(out, figRequest{Exp: name, Params: p})
		}
	}
	return out
}

// idOf names a grid point of spec by what determines its result.
func idOf(spec *core.SweepSpec, chunk int, seed int64) pointID {
	sc := cell.Scenario{Kind: spec.Scenario, Op: spec.Op}.WithDefaultOp()
	return pointID{Kind: spec.Scenario, SPEs: spec.SPEs, Op: sc.Op, List: spec.List,
		Volume: spec.Volume, Chunk: chunk, Seed: seed}
}
