package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cellbe/internal/cell"
	"cellbe/internal/core"
)

// tally counts requests attempted and every way one can fail. fail_ratio
// is failed()/attempted: errors, refusals, timeouts and outputs that did
// not match. Only the client goroutine updates it.
type tally struct {
	attempted  int
	errors     int
	refused    int
	timeouts   int
	mismatches int
}

func (t *tally) attempt() { t.attempted++ }

// fail records one failed request; err classifies it.
func (t *tally) fail(err error) {
	switch {
	case isRefusal(err):
		t.refused++
	case errors.Is(err, context.DeadlineExceeded):
		t.timeouts++
	case errors.Is(err, errMismatch):
		t.mismatches++
	default:
		t.errors++
	}
}

func (t *tally) failed() int {
	return t.errors + t.refused + t.timeouts + t.mismatches
}

func (t *tally) ratio() float64 { return ratio(float64(t.failed()), float64(t.attempted)) }

func (t *tally) String() string {
	return fmt.Sprintf("attempted %d: %d errors, %d refused, %d timeouts, %d mismatches",
		t.attempted, t.errors, t.refused, t.timeouts, t.mismatches)
}

// isRefusal reports whether the scheduler turned a job away rather than
// failing it: a full queue, a closed scheduler or a rejected spec.
func isRefusal(err error) bool {
	return errors.Is(err, core.ErrQueueFull) || errors.Is(err, core.ErrClosed) || errors.Is(err, cell.ErrBadScenario)
}

// errMismatch marks an output that disagrees with its reference.
var errMismatch = errors.New("output mismatch")

// pointID names one simulated grid point by everything that determines
// its result.
type pointID struct {
	Kind   string
	SPEs   int
	Op     string
	List   bool
	Volume int64
	Chunk  int
	Seed   int64
}

// pointVal is the simulated outcome the benchmark checks: deterministic,
// so any difference is a failure, never noise.
type pointVal struct {
	Cycles    int64
	Transfers int64
	GBps      float64
}

// ledger collects every distinct simulated point a run delivered. The
// same point delivered twice (a repeat, a cache hit) must carry the same
// value. Only the client goroutine updates it.
type ledger struct {
	points map[pointID]pointVal
}

func newLedger() *ledger { return &ledger{points: make(map[pointID]pointVal)} }

// add records a delivered point; it returns errMismatch when the point
// was delivered before with a different value.
func (l *ledger) add(id pointID, v pointVal) error {
	if old, ok := l.points[id]; ok && old != v {
		return fmt.Errorf("%w: %+v delivered as %+v and as %+v", errMismatch, id, old, v)
	}
	l.points[id] = v
	return nil
}

func (l *ledger) sorted() []pointID {
	ids := make([]pointID, 0, len(l.points))
	for id := range l.points {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		return fmt.Sprintf("%v", ids[i]) < fmt.Sprintf("%v", ids[j])
	})
	return ids
}

// digest hashes every distinct point (id, cycles, transfers, exact GB/s
// bits) in a canonical order: the same requests give the same digest
// whatever the worker count, delivery order or cache state.
func (l *ledger) digest() string {
	h := sha256.New()
	for _, id := range l.sorted() {
		v := l.points[id]
		fmt.Fprintf(h, "%v|%d|%d|%x\n", id, v.Cycles, v.Transfers, math.Float64bits(v.GBps))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// resimulate re-runs a seeded sample of n delivered points through an
// independent cold boot (cell.New + Scenario.Install + RunChecked) and
// returns how many it checked and the mismatches found.
func (l *ledger) resimulate(seed int64, n int) (checked int, bad []error) {
	ids := l.sorted()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if len(ids) > n {
		ids = ids[:n]
	}
	for _, id := range ids {
		want := l.points[id]
		got, err := coldSim(id)
		if err == nil && got != want {
			err = fmt.Errorf("%w: %+v delivered %+v, cold boot gives %+v", errMismatch, id, want, got)
		}
		if err != nil {
			bad = append(bad, err)
		}
	}
	return len(ids), bad
}

// coldSim simulates one point from scratch, outside the scheduler and its
// warm path, on the machine a sweep point runs on: the default
// configuration with the seed's random layout.
func coldSim(id pointID) (pointVal, error) {
	cfg := cell.DefaultConfig()
	cfg.Layout = cell.RandomLayout(id.Seed)
	sys := cell.New(cfg)
	defer sys.Release()
	sc := cell.Scenario{Kind: id.Kind, SPEs: id.SPEs, Chunk: id.Chunk, Volume: id.Volume, Op: id.Op, List: id.List}
	total, err := sc.WithDefaultOp().Install(sys)
	if err != nil {
		return pointVal{}, fmt.Errorf("re-simulating %+v: %w", id, err)
	}
	if err := sys.RunChecked(0); err != nil {
		return pointVal{}, fmt.Errorf("re-simulating %+v: %w", id, err)
	}
	now := sys.Eng.Now()
	return pointVal{Cycles: int64(now), Transfers: sys.Bus.Stats().Transfers, GBps: sys.GBps(total, now)}, nil
}
