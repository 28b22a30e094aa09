package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"cellbe/internal/cell"
	"cellbe/internal/core"
)

func TestTailPercentileRefusesP90BelowHundredSamples(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := tailPercentile(xs, 0.90); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p90 of 99 samples: err = %v, want errTooFewSamples", err)
	}
	xs = append(xs, 100)
	got, err := tailPercentile(xs, 0.90)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if want := 90.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want %v", got, want)
	}
	if _, err := tailPercentile(xs, 0.99); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p99 of 100 samples: err = %v, want errTooFewSamples", err)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
}

// The steadiness report must agree with Python's
// statistics.quantiles(xs, n=4), which the acceptance rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3}, [3]float64{1.5, 5, 9.25}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTallyCountsEveryFailureKind(t *testing.T) {
	var tal tally
	for i := 0; i < 10; i++ {
		tal.attempt()
	}
	tal.fail(core.ErrQueueFull)
	tal.fail(fmt.Errorf("submitting: %w", core.ErrClosed))
	tal.fail(fmt.Errorf("spec: %w", cell.ErrBadScenario))
	tal.fail(fmt.Errorf("job: %w", context.DeadlineExceeded))
	tal.fail(fmt.Errorf("%w: digest differs", errMismatch))
	tal.fail(errors.New("connection reset"))
	if tal.refused != 3 || tal.timeouts != 1 || tal.mismatches != 1 || tal.errors != 1 {
		t.Errorf("tally = %s, want 3 refused, 1 timeout, 1 mismatch, 1 error", tal.String())
	}
	if got := tal.failed(); got != 6 {
		t.Errorf("failed() = %d, want 6", got)
	}
	if got := tal.ratio(); got != 0.6 {
		t.Errorf("ratio() = %v, want 0.6", got)
	}
}

func TestLedgerFlagsConflictingDeliveries(t *testing.T) {
	led := newLedger()
	id := pointID{Kind: "pair", SPEs: 2, Op: "get", Volume: 16 << 10, Chunk: 1024, Seed: 5}
	if err := led.add(id, pointVal{Cycles: 10, Transfers: 2, GBps: 1.5}); err != nil {
		t.Fatal(err)
	}
	if err := led.add(id, pointVal{Cycles: 10, Transfers: 2, GBps: 1.5}); err != nil {
		t.Errorf("same value twice: %v", err)
	}
	if err := led.add(id, pointVal{Cycles: 11, Transfers: 2, GBps: 1.5}); !errors.Is(err, errMismatch) {
		t.Errorf("conflicting value: err = %v, want errMismatch", err)
	}
}

// The simulated-result digest must not depend on the worker count, and
// the cold-boot re-simulation must agree with what the scheduler
// delivered (warm path included).
func TestDigestSameForOneAndTwoWorkers(t *testing.T) {
	jobs := eibJobs(7, 3)
	for i := range jobs {
		jobs[i].Volume = 16 << 10
	}
	jobs = append(jobs, memJobs(7, 2)...)
	digest := func(workers int) string {
		s := core.NewScheduler(core.SchedOptions{Workers: workers})
		defer s.Close()
		led := newLedger()
		for i := range jobs {
			if _, _, err := runJob(s, &jobs[i], led, nil, -1); err != nil {
				t.Fatalf("%d workers: %v", workers, err)
			}
		}
		if checked, bad := led.resimulate(1, 4); checked != 4 || len(bad) != 0 {
			t.Fatalf("%d workers: re-simulated %d points, mismatches %v", workers, checked, bad)
		}
		return led.digest()
	}
	if d1, d2 := digest(1), digest(2); d1 != d2 {
		t.Errorf("digest with 1 worker %s, with 2 workers %s", d1, d2)
	}
}

func TestEIBReplayIsExact(t *testing.T) {
	match, ns, n, err := replayEIB(1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 16384 || match != 1 {
		t.Errorf("replayed %d grants, match ratio %v; want 16384 grants, all matching", n, match)
	}
	if ns <= 0 {
		t.Errorf("ns per grant = %v", ns)
	}
}

// Request sequences are a pure function of the seed, with a fixed class
// mix.
func TestRequestSequencesAreSeeded(t *testing.T) {
	for _, gen := range []func(seed int64) any{
		func(seed int64) any { return eibJobs(seed, 90) },
		func(seed int64) any { return memJobs(seed, 70) },
		func(seed int64) any { return figRequests(seed, 3) },
	} {
		if a, b := fmt.Sprint(gen(3)), fmt.Sprint(gen(3)); a != b {
			t.Fatalf("two generations with one seed differ:\n%s\n%s", a, b)
		}
	}
	kinds := make(map[string]int)
	for _, j := range eibJobs(9, 90) {
		kinds[j.Scenario]++
		if len(j.Chunks)*len(j.Seeds) != 4 {
			t.Fatalf("sweep-eib job with %d points, want 4", len(j.Chunks)*len(j.Seeds))
		}
	}
	if kinds["cycle"] != 30 || kinds["couples"] != 30 || kinds["pair"] != 30 {
		t.Errorf("sweep-eib class mix %v, want 30 of each kind", kinds)
	}
}

// The phase clock leaves calibrations out, and the slowdown is the median
// reference time over the nominal one.
func TestHostClock(t *testing.T) {
	c := &hostClock{t0: time.Now().Add(-time.Second), paused: 400 * time.Millisecond,
		refs: []time.Duration{3 * refNominal, refNominal, 2 * refNominal}}
	if got := c.now(); got < 600*time.Millisecond || got > 700*time.Millisecond {
		t.Errorf("now() = %v, want about 600ms (1s minus 400ms paused)", got)
	}
	if got := c.slowdown(); got != 2 {
		t.Errorf("slowdown() = %v, want 2", got)
	}
	p := phase{points: 100, wall: time.Second, slowdown: 2}
	if got := p.pointsPerSec(); got != 200 {
		t.Errorf("pointsPerSec() on a host twice slower than nominal = %v, want 200", got)
	}
	c = startClock()
	c.calibrate()
	if len(c.refs) != 1 || c.refs[0] <= 0 || c.paused != c.refs[0] {
		t.Errorf("after one calibration: refs %v, paused %v", c.refs, c.paused)
	}
}
