package main

import (
	"sort"
	"time"
)

// The benchmark machine is shared, and its speed drifts by 20-40% for
// tens of seconds at a time: a fixed arithmetic loop took anywhere from
// 0.16 to 0.32 s with no CPU steal recorded, longer than one run lasts.
// A run therefore also times a fixed reference loop, which uses none of
// the program's code and allocates nothing, before each request and each
// warm-up request, off the clock, and reports its time metrics at a
// nominal host speed: a duration d measured while the loop took r reads
// d * refNominal / r.
// Over the same runs this cut the spread of points_per_s from 0.12 to
// 0.07 on sweep-eib and from 0.19 to 0.04 on sweep-mem (README.md).

// refIters sizes the reference loop at about half a millisecond on the
// benchmark machine: long enough to time well, a few percent of a request.
const refIters = 250_000

// refNominal is the reference loop's time at the host speed the time metrics are
// reported at. It only sets their scale.
const refNominal = 500 * time.Microsecond

// hostClock times a phase. Before each request, calibrate runs the
// reference loop with the clock stopped.
type hostClock struct {
	t0     time.Time
	paused time.Duration
	refs   []time.Duration
	buf    []uint64 // 64 KB: the loop stays in cache
}

func startClock() *hostClock {
	return &hostClock{t0: time.Now(), buf: make([]uint64, 1<<13)}
}

// calibrate times the reference loop once, off the clock.
func (c *hostClock) calibrate() {
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < refIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c.buf[x>>51] += x
	}
	d := time.Since(t0)
	c.refs = append(c.refs, d)
	c.paused += d
}

// now is the time on the clock: since the start, calibrations excluded.
func (c *hostClock) now() time.Duration { return time.Since(c.t0) - c.paused }

// slowdown is the median reference time over refNominal: above 1 the host
// ran slower than nominal during the phase. A phase divides its measured
// durations by it.
func (c *hostClock) slowdown() float64 {
	s := append([]time.Duration(nil), c.refs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[len(s)/2]) / float64(refNominal)
}
