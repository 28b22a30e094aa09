package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cellbe/internal/core"
)

// jobTimeout bounds one request; a request that takes longer counts as a
// timeout failure.
const jobTimeout = 60 * time.Second

// phase is what one timed pass over a workload's requests measured, in
// host time as measured.
type phase struct {
	lat    []time.Duration // per request, in request order
	points int             // grid points delivered (simulated or memo hit)
	wall   time.Duration
	done   []completion // every delivered request
	// slowdown is the host's speed during the pass (hostClock.slowdown):
	// durations divided by it are at nominal host speed.
	slowdown float64
}

// completion is one delivered request: when it finished, on the phase's
// clock, and the grid points it delivered.
type completion struct {
	at     time.Duration
	points int
}

// pointsPerSec is the pass's throughput at nominal host speed.
func (p phase) pointsPerSec() float64 { return float64(p.points) / p.wall.Seconds() * p.slowdown }

// windowRates splits the phase into about k windows of consecutive
// completions, each a whole number of rounds (a round holds every request
// shape once, so all windows carry the same mix), and returns each
// window's points per second. Their median is robust to a short stall of
// the host that the whole-phase mean would absorb.
func (p phase) windowRates(round, k int) []float64 {
	done := append([]completion(nil), p.done...)
	sort.Slice(done, func(i, j int) bool { return done[i].at < done[j].at })
	size := max(1, len(done)/(k*round)) * round
	var rates []float64
	var from time.Duration
	for lo := 0; lo+size <= len(done); lo += size {
		pts := 0
		for _, c := range done[lo : lo+size] {
			pts += c.points
		}
		to := done[lo+size-1].at
		if to > from {
			rates = append(rates, float64(pts)/(to-from).Seconds())
		}
		from = to
	}
	return rates
}

// sweepWorkload drives an in-process core.Scheduler in a closed loop with
// one client: each job is submitted after the previous one's last result.
// The scheduler runs memo off, as cellbench does.
type sweepWorkload struct {
	jobs   []core.SweepSpec // the timed requests
	warmup []core.SweepSpec // untimed, one of each job shape
	sched  *core.Scheduler
	led    *ledger
	tal    *tally
}

func newSweepWorkload(jobs, warmup []core.SweepSpec) *sweepWorkload {
	return &sweepWorkload{jobs: jobs, warmup: warmup, led: newLedger(), tal: &tally{}}
}

func (w *sweepWorkload) setup(clk *hostClock) error {
	// This client never looks a finished job up again, so it keeps one:
	// a retained job holds its warm-snapshot arena, and 256 of them (the
	// default) would make peak RSS measure the retention, not the sweep.
	w.sched = core.NewScheduler(core.SchedOptions{Workers: workers, KeepJobs: 1})
	for i := range w.warmup {
		clk.calibrate()
		if _, _, err := runJob(w.sched, &w.warmup[i], nil, nil, -1); err != nil {
			return fmt.Errorf("warm-up job %d: %w", i, err)
		}
	}
	return nil
}

func (w *sweepWorkload) close() {
	if w.sched != nil {
		w.sched.Close()
		w.sched = nil
	}
}

func (w *sweepWorkload) run(tr *spans) phase {
	p := phase{lat: make([]time.Duration, 0, len(w.jobs))}
	clk := startClock()
	for i := range w.jobs {
		clk.calibrate()
		root := tr.begin("bench", "request", -1)
		w.tal.attempt()
		d, n, err := runJob(w.sched, &w.jobs[i], w.led, tr, root)
		tr.end(root)
		p.points += n
		if err != nil {
			w.tal.fail(err)
			continue
		}
		p.lat = append(p.lat, d)
		p.done = append(p.done, completion{at: clk.now(), points: n})
	}
	p.wall = clk.now()
	p.slowdown = clk.slowdown()
	return p
}

// runJob submits one sweep and drains it. Its latency runs from Submit to
// the last result. Delivered points go to led (when set), which flags a
// point that disagrees with an earlier delivery of the same point.
func runJob(s *core.Scheduler, spec *core.SweepSpec, led *ledger, tr *spans, parent int) (time.Duration, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	t0 := time.Now()
	sp := tr.begin("core", "Scheduler.Submit", parent)
	job, err := s.Submit(ctx, *spec)
	tr.end(sp)
	if err != nil {
		return 0, 0, fmt.Errorf("submitting %s sweep: %w", spec.Scenario, err)
	}
	sp = tr.begin("core", "Job.Results", parent)
	n := 0
	var firstErr error
	for pr := range job.Results() {
		n++
		switch {
		case pr.Err != nil:
			firstErr = fmt.Errorf("%s chunk=%d seed=%d: %w", spec.Scenario, pr.Chunk, pr.Seed, pr.Err)
		case led != nil:
			v := pointVal{Cycles: int64(pr.Cycles), Transfers: pr.Transfers, GBps: pr.GBps}
			if err := led.add(idOf(spec, pr.Chunk, pr.Seed), v); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	tr.end(sp)
	d := time.Since(t0)
	if firstErr == nil && n != job.Total() {
		firstErr = fmt.Errorf("%s sweep delivered %d of %d points", spec.Scenario, n, job.Total())
		if ctx.Err() != nil {
			firstErr = fmt.Errorf("%s sweep: %w", spec.Scenario, ctx.Err())
		}
	}
	return d, n, firstErr
}

func (w *sweepWorkload) failures() *tally { return w.tal }

func (w *sweepWorkload) verify(seed int64) []string {
	return verifyLedger(w.led, w.tal, seed)
}

// verifyLedger re-simulates a seeded sample of the delivered points
// through cold boots and counts every mismatch as a failed request.
func verifyLedger(led *ledger, tal *tally, seed int64) []string {
	checked, bad := led.resimulate(seed, resimSample)
	for _, err := range bad {
		tal.fail(err)
	}
	return []string{
		fmt.Sprintf("digest %s over %d distinct points", led.digest(), len(led.points)),
		fmt.Sprintf("cold-boot re-simulation: %d of %d sampled points match", checked-len(bad), checked),
	}
}

// resimSample is how many delivered points each run re-simulates.
const resimSample = 6

func (w *sweepWorkload) counters() map[string]float64 {
	if w.sched == nil {
		return nil
	}
	return map[string]float64{
		"warm":        float64(w.sched.WarmPoints()),
		"simulations": float64(w.sched.CacheStats().Simulations),
	}
}
