package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cellbe/internal/cell"
	"cellbe/internal/core"
	"cellbe/internal/journal"
	"cellbe/internal/perfctr"
	"cellbe/internal/serve"
	"cellbe/internal/sim"
)

// perLayer is the traced run. It repeats the timed phase with spans on
// (trace.overhead_ratio compares the two passes), then times the calls
// into each layer's public functions from here and prints the per-layer
// metrics, each with its base.
func perLayer(rep *report, o options, w workload, untraced phase) error {
	var expTimes map[string][]float64
	if fw, ok := w.(*figsWorkload); ok {
		expTimes = fw.byExp
	}
	var counters map[string]float64
	if sw, ok := w.(*sweepWorkload); ok {
		counters = sw.counters()
	}

	w.close()
	if err := w.setup(startClock()); err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	tr := newSpans()
	traced := w.run(tr)
	tr.print(os.Stdout)
	w.close()
	// The probes below run on every P; execute restores the pin after.
	runtime.GOMAXPROCS(runtime.NumCPU())

	grid := probeGrid(o.workload)
	if err := simLayer(rep, grid); err != nil {
		return err
	}
	if err := eibReplay(rep, w.failures()); err != nil {
		return err
	}
	if err := cellLayer(rep); err != nil {
		return err
	}
	if err := coreLayer(rep, grid, counters); err != nil {
		return err
	}
	if err := journalLayer(rep, o); err != nil {
		return err
	}
	if err := serveLayer(rep); err != nil {
		return err
	}
	if expTimes == nil {
		expTimes = make(map[string][]float64)
		for _, r := range figRequests(o.seed, 1) {
			t0 := time.Now()
			if _, _, err := runFig(r); err != nil {
				return err
			}
			expTimes[r.Exp] = append(expTimes[r.Exp], time.Since(t0).Seconds())
		}
	}
	for _, name := range figExperiments {
		ts := expTimes[name]
		rep.add("core.exp."+name+"_s", "s", median(ts), "(median of %d runs, reduced params)", len(ts))
	}
	rep.add("trace.overhead_ratio", "1", traced.pointsPerSec()/untraced.pointsPerSec(),
		"(traced %.4g / untraced %.4g points/s, each at nominal host speed)", traced.pointsPerSec(), untraced.pointsPerSec())
	return nil
}

// probeGrid is the grid the per-point counters are read from: the
// workload's own job shapes on fixed layouts.
func probeGrid(name string) []core.SweepSpec {
	var specs []core.SweepSpec
	switch name {
	case "sweep-eib":
		specs = eibTemplates
	case "sweep-mem":
		specs = memTemplates
	case "paper-figs":
		specs = []core.SweepSpec{
			{Scenario: "cycle", SPEs: 8, Chunks: []int{1024, 16384}, Volume: 32 << 10},
			{Scenario: "pair", SPEs: 2, Chunks: []int{1024, 16384}, Volume: 32 << 10},
			{Scenario: "mem", SPEs: 8, Op: "get", Chunks: []int{1024, 16384}, Volume: 32 << 10},
		}
	}
	out := make([]core.SweepSpec, len(specs))
	for i, s := range specs {
		s.Chunks = append([]int(nil), s.Chunks...)
		s.Seeds = []int64{3, 11, 19}
		s.Workers = 1
		out[i] = s
	}
	return out
}

// pointStats is what a direct loop over grid points measured.
type pointStats struct {
	points, warm, cold                int
	events, grants, denies, commands  int64
	retries, xdrBytes, rowHit, rowAll uint64
	wall, runWall, prep, rollup       time.Duration
	allocsWarm, allocsCold            uint64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// directRun simulates every point of specs without the scheduler:
// snapshot-capable scenarios through Snapshot.CloneFor/Retire (the warm
// path), the rest through cell.New/Install (cold boots), each point
// through RunChecked and the counter rollup.
func directRun(specs []core.SweepSpec) (pointStats, error) {
	var st pointStats
	t0 := time.Now()
	for _, spec := range specs {
		scen := cell.Scenario{Kind: spec.Scenario, SPEs: spec.SPEs, Op: spec.Op, List: spec.List, Volume: spec.Volume}.WithDefaultOp()
		scen.Chunk = spec.Chunks[0]
		tmpl := cell.New(pointCfg(spec.Seeds[0]))
		if _, err := scen.Install(tmpl); err != nil {
			return st, err
		}
		snap, err := tmpl.Snapshot()
		if err == nil {
			snap.Retire(tmpl)
		} else {
			tmpl.Release()
		}
		// Allocations are read once per spec: ReadMemStats stops the
		// world, which would inflate the timed points.
		a0 := mallocs()
		for _, chunk := range spec.Chunks {
			for _, seed := range spec.Seeds {
				if err := onePoint(&st, scen, snap, chunk, seed); err != nil {
					return st, err
				}
			}
		}
		n := len(spec.Chunks) * len(spec.Seeds)
		if snap != nil {
			st.warm += n
			st.allocsWarm += mallocs() - a0
		} else {
			st.cold += n
			st.allocsCold += mallocs() - a0
		}
	}
	st.wall = time.Since(t0)
	return st, nil
}

func pointCfg(seed int64) cell.Config {
	cfg := cell.DefaultConfig()
	cfg.Layout = cell.RandomLayout(seed)
	return cfg
}

func onePoint(st *pointStats, scen cell.Scenario, snap *cell.Snapshot, chunk int, seed int64) error {
	t0 := time.Now()
	var sys *cell.System
	if snap != nil {
		var err error
		if sys, _, err = snap.CloneFor(pointCfg(seed), chunk); err != nil {
			return err
		}
		defer func() {
			t := time.Now()
			snap.Retire(sys)
			st.prep += time.Since(t)
		}()
	} else {
		sys = cell.New(pointCfg(seed))
		sc := scen
		sc.Chunk = chunk
		if _, err := sc.Install(sys); err != nil {
			return err
		}
		defer sys.Release()
	}
	pc := &perfctr.Counters{}
	sys.SetPerf(pc)
	st.prep += time.Since(t0)

	t1 := time.Now()
	if err := sys.RunChecked(0); err != nil {
		return err
	}
	st.runWall += time.Since(t1)

	t2 := time.Now()
	ru := pc.Rollup()
	for i := range sys.SPEs {
		ru.AddOccupancy(i, sys.SPEs[i].MFC().OccupancyHist())
	}
	st.rollup += time.Since(t2)

	st.points++
	st.events += sys.Eng.Fired()
	st.grants += int64(ru.EIBGrants)
	st.denies += int64(ru.EIBDenies)
	st.commands += sys.Bus.Stats().Commands
	st.retries += ru.MFCRetries
	st.xdrBytes += ru.XDRBytesTotal()
	for b := range ru.XDRRowHits {
		st.rowHit += ru.XDRRowHits[b]
		st.rowAll += ru.XDRRowHits[b] + ru.XDRRowMisses[b]
	}
	return nil
}

// simLayer: the engine on its own (EventChurn) and the events a point of
// the workload fires.
func simLayer(rep *report, grid []core.SweepSpec) error {
	e := sim.NewEngine()
	sim.EventChurn(e, sim.ChurnRounds)
	var fired int64
	t0 := time.Now()
	for i := 0; i < 200; i++ {
		fired += sim.EventChurn(e, sim.ChurnRounds)
	}
	d := time.Since(t0)
	rep.add("sim.churn_events_per_s", "1/s", float64(fired)/d.Seconds(), "(%d events in %.3f s)", fired, d.Seconds())

	st, err := directRun(grid)
	if err != nil {
		return err
	}
	n := float64(st.points)
	rep.add("sim.events_per_point", "count", float64(st.events)/n, "(%d Engine.Fired over %d points)", st.events, st.points)
	rep.add("eib.grants_per_point", "count", float64(st.grants)/n, "(%d grants over %d points)", st.grants, st.points)
	rep.add("eib.deny_ratio", "1", ratio(float64(st.denies), float64(st.grants+st.denies)), "(%d denies / %d grants+denies)", st.denies, st.grants+st.denies)
	rep.add("mfc.commands_per_point", "count", float64(st.commands)/n, "(%d commands over %d points)", st.commands, st.points)
	rep.add("mfc.retries_per_point", "count", float64(st.retries)/n, "(%d command-bus retries over %d points)", st.retries, st.points)
	rep.add("xdr.bytes_per_point", "B", float64(st.xdrBytes)/n, "(%d bytes over %d points)", st.xdrBytes, st.points)
	rep.add("xdr.row_hit_ratio", "1", ratio(float64(st.rowHit), float64(st.rowAll)), "(%d row hits / %d accesses)", st.rowHit, st.rowAll)
	return nil
}

// eibReplay times the recorded grant stream. A replay that no longer
// reproduces the recording times a different stream, so it fails the run.
func eibReplay(rep *report, tal *tally) error {
	match, ns, n, err := replayEIB(5)
	if err != nil {
		return err
	}
	if match != 1 {
		err := fmt.Errorf("%w: EIB replay matches %.6f of %d recorded grants", errMismatch, match, n)
		fmt.Println("check", err)
		tal.fail(err)
	}
	rep.add("eib.replay_ns_per_grant", "ns", ns, "(median of 5 replays of %d recorded grants)", n)
	rep.add("eib.replay_match_ratio", "1", match, "(grants whose start, ring and end match the recording, of %d)", n)
	return nil
}

// cellLayer times boots, clones and runs on two fixed probes: a stream
// scenario (cycle, warm path) and a pattern scenario (gups, cold path).
func cellLayer(rep *report) error {
	stream := []core.SweepSpec{{Scenario: "cycle", SPEs: 8, Chunks: []int{4096}, Seeds: []int64{3, 5, 7, 11}, Volume: 128 << 10}}
	pattern := []core.SweepSpec{{Scenario: "gups", SPEs: 8, Chunks: []int{128}, Seeds: []int64{3, 5, 7, 11}, Volume: 32 << 10}}
	// A first pass grows the heap; the measured pass below reports any
	// error the two share.
	_, _ = directRun(stream)
	ws, err := directRun(stream)
	if err != nil {
		return err
	}
	cs, err := directRun(pattern)
	if err != nil {
		return err
	}
	rep.add("cell.boot_us", "us", us(cs.prep)/float64(cs.points), "(cell.New + Scenario.Install, gups, mean of %d)", cs.points)
	rep.add("cell.clone_us", "us", us(ws.prep)/float64(ws.points), "(CloneFor + Retire, cycle, mean of %d)", ws.points)
	rep.add("cell.run_ns_per_grant.stream", "ns", float64(ws.runWall.Nanoseconds())/float64(ws.grants), "(RunChecked %.1f ms / %d grants, cycle)", ms(ws.runWall), ws.grants)
	rep.add("cell.run_ns_per_grant.pattern", "ns", float64(cs.runWall.Nanoseconds())/float64(cs.grants), "(RunChecked %.1f ms / %d grants, gups)", ms(cs.runWall), cs.grants)
	rep.add("cell.allocs_per_point.warm", "count", float64(ws.allocsWarm)/float64(ws.warm), "(%d allocs over %d warm points)", ws.allocsWarm, ws.warm)
	rep.add("cell.allocs_per_point.cold", "count", float64(cs.allocsCold)/float64(cs.cold), "(%d allocs over %d cold points)", cs.allocsCold, cs.cold)
	rep.add("perfctr.rollup_us", "us", us(ws.rollup+cs.rollup)/float64(ws.points+cs.points), "(Rollup + AddOccupancy, mean of %d)", ws.points+cs.points)
	return nil
}

// coreLayer: the scheduler's own cost per point, against a direct loop
// over the same grid, and the workload's warm-path counters (none on
// paper-figs, which has no scheduler).
func coreLayer(rep *report, grid []core.SweepSpec, counters map[string]float64) error {
	points := 0
	for _, s := range grid {
		points += len(s.Chunks) * len(s.Seeds)
	}
	sched := core.NewScheduler(core.SchedOptions{Workers: 1})
	defer sched.Close()
	// Each repetition pairs a direct pass with a scheduler pass right
	// after it, so a drift of the host cancels within the pair.
	const reps = 5
	var direct, viaSched, diffs []float64
	var schedAllocs uint64
	for rep := 0; rep < reps; rep++ {
		st, err := directRun(grid)
		if err != nil {
			return err
		}
		a0 := mallocs()
		t0 := time.Now()
		for i := range grid {
			if _, _, err := runJob(sched, &grid[i], nil, nil, -1); err != nil {
				return err
			}
		}
		d := time.Since(t0)
		schedAllocs = mallocs() - a0
		direct = append(direct, us(st.wall))
		viaSched = append(viaSched, us(d))
		diffs = append(diffs, (us(d)-us(st.wall))/float64(points))
	}
	rep.add("core.overhead_us_per_point", "us", median(diffs), "(scheduler pass - direct pass over %d points, median of %d pairs; medians %.0f us and %.0f us)",
		points, reps, median(viaSched), median(direct))
	rep.add("core.allocs_per_point.sched", "count", float64(schedAllocs)/float64(points), "(%d allocs over %d points, 1 worker)", schedAllocs, points)

	memo := core.NewScheduler(core.SchedOptions{Workers: 1, CachePoints: 4096})
	defer memo.Close()
	for i := range grid {
		if _, _, err := runJob(memo, &grid[i], nil, nil, -1); err != nil {
			return err
		}
	}
	var hits []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := range grid {
			if _, _, err := runJob(memo, &grid[i], nil, nil, -1); err != nil {
				return err
			}
		}
		hits = append(hits, us(time.Since(t0))/float64(points))
	}
	rep.add("core.memo_hit_us", "us", median(hits), "(per memoized point, median of 5 resubmissions of %d points)", points)
	rep.add("core.warm_ratio", "1", ratio(counters["warm"], counters["simulations"]), "(%.0f warm points / %.0f simulations)", counters["warm"], counters["simulations"])
	return nil
}

// journalLayer appends a job and its points the way cellserve does
// (point records batched eight per fsync, the -journal-sync default),
// then replays the file with journal.Open.
func journalLayer(rep *report, o options) error {
	dir := filepath.Join(o.tmp, fmt.Sprintf("journal-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	jr, _, err := journal.Open(filepath.Join(dir, "j"), journal.Options{SyncEvery: 1 << 30})
	if err != nil {
		return err
	}
	spec := core.SweepSpec{Scenario: "cycle", SPEs: 8, Chunks: []int{4096}, Seeds: []int64{1}, Volume: 128 << 10}
	raw, err := core.MarshalSpec(spec)
	if err != nil {
		return err
	}
	jid, err := jr.AppendJob(raw)
	if err != nil {
		return err
	}
	res, err := core.RunSweep(spec)
	if err != nil {
		return err
	}
	rec := pointRecord(res[0])
	const n = 800
	var appends, syncs []float64
	for i := 0; i < n; i++ {
		rec.Seed = int64(i)
		key := sha256.Sum256([]byte(fmt.Sprint(i)))
		t0 := time.Now()
		if err := jr.AppendPoint(jid, hex.EncodeToString(key[:]), rec); err != nil {
			return err
		}
		appends = append(appends, us(time.Since(t0)))
		if i%8 == 7 {
			t0 = time.Now()
			if err := jr.Sync(); err != nil {
				return err
			}
			syncs = append(syncs, ms(time.Since(t0)))
		}
	}
	if err := jr.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(filepath.Join(dir, "j", "journal.ndjson"))
	if err != nil {
		return fmt.Errorf("journal file: %w", err)
	}
	var replays []float64
	for k := 0; k < 3; k++ {
		cp := filepath.Join(dir, fmt.Sprintf("copy-%d", k))
		if err := copyDir(filepath.Join(dir, "j"), cp); err != nil {
			return err
		}
		t0 := time.Now()
		j2, st, err := journal.Open(cp, journal.Options{})
		if err != nil {
			return err
		}
		replays = append(replays, ms(time.Since(t0)))
		j2.Close()
		if len(st.Jobs) != 1 {
			return fmt.Errorf("journal replay found %d jobs, want 1", len(st.Jobs))
		}
	}
	a90, _ := tailPercentile(appends, 0.90)
	s90, _ := tailPercentile(syncs, 0.90)
	rep.add("journal.append_us_p50", "us", median(appends), "(n=%d point appends)", len(appends))
	rep.add("journal.append_us_p90", "us", a90, "(n=%d point appends)", len(appends))
	rep.add("journal.sync_ms_p90", "ms", s90, "(n=%d fsyncs of 8 records)", len(syncs))
	rep.add("journal.replay_ms", "ms", median(replays), "(journal.Open of %d records, median of 3)", n+1)
	rep.add("journal.bytes_per_point", "B", float64(fi.Size())/n, "(%d bytes / %d point records)", fi.Size(), n)
	return nil
}

func pointRecord(r core.SweepResult) journal.PointRecord {
	return journal.PointRecord{Chunk: r.Chunk, Seed: r.Seed, Cycles: int64(r.Cycles), GBps: r.GBps,
		Transfers: r.Transfers, WaitCycles: int64(r.WaitCycles), Commands: r.Commands, Attempts: r.Attempts, Perf: r.Perf}
}

// serveLayer drives serve.Server.ServeHTTP in process: a fully memoized
// sweep, a rejected request (400) and a /metrics scrape.
func serveLayer(rep *report) error {
	sched := core.NewScheduler(core.SchedOptions{Workers: 1, CachePoints: 4096})
	defer sched.Close()
	h := serve.New(serve.Options{Sched: sched})
	body, _ := json.Marshal(serve.SweepRequest{Scenario: "couples", SPEs: 8, Chunks: []int{4096}, Seeds: []int64{3, 5}, Volume: 16 << 10})
	call := func(method, path string, b []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(string(b)))
		req = req.WithContext(context.Background())
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}
	timeIt := func(n int, method, path string, b []byte, want int) ([]float64, error) {
		var out []float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			rr := call(method, path, b)
			out = append(out, us(time.Since(t0)))
			if rr.Code != want {
				return nil, fmt.Errorf("%s %s: status %d, want %d", method, path, rr.Code, want)
			}
		}
		return out, nil
	}
	if _, err := timeIt(1, "POST", "/v1/sweeps", body, http.StatusOK); err != nil {
		return err
	}
	cached, err := timeIt(50, "POST", "/v1/sweeps", body, http.StatusOK)
	if err != nil {
		return err
	}
	bad := []byte(`{"scenario":"pair","spes":2,"chunks":[100],"seeds":[1],"volume":16384}`)
	reject, err := timeIt(200, "POST", "/v1/sweeps", bad, http.StatusBadRequest)
	if err != nil {
		return err
	}
	scrape, err := timeIt(20, "GET", "/metrics", nil, http.StatusOK)
	if err != nil {
		return err
	}
	rep.add("serve.cached_req_ms_p50", "ms", median(cached)/1000, "(n=%d memoized 2-point sweeps, in-process ServeHTTP)", len(cached))
	rep.add("serve.reject_us_p50", "us", median(reject), "(n=%d 400 answers)", len(reject))
	rep.add("serve.metrics_scrape_ms", "ms", median(scrape)/1000, "(median of %d GET /metrics)", len(scrape))
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
