package eib

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cellbe/internal/sim"
)

func TestTimelineFirstFitInGap(t *testing.T) {
	var tl timeline
	tl.reserve(0, 10, 1)
	tl.reserve(30, 10, 1)
	// A 10-cycle same-owner request fits in the [10,30) gap.
	if got := tl.earliestFit(0, 10, 1, 0); got != 10 {
		t.Fatalf("fit at %d, want 10", got)
	}
	// A 25-cycle request does not fit in the gap: goes after the tail.
	if got := tl.earliestFit(0, 25, 1, 0); got != 40 {
		t.Fatalf("fit at %d, want 40", got)
	}
}

func TestTimelineSwitchingGap(t *testing.T) {
	var tl timeline
	tl.reserve(0, 10, 1)
	// Different owner pays the gap after owner 1's interval...
	if got := tl.earliestFit(0, 10, 2, 8); got != 18 {
		t.Fatalf("other-owner fit at %d, want 18", got)
	}
	// ...while the same owner continues gaplessly.
	if got := tl.earliestFit(0, 10, 1, 8); got != 10 {
		t.Fatalf("same-owner fit at %d, want 10", got)
	}
	// Fitting *before* a foreign interval needs gap clearance too.
	tl2 := timeline{}
	tl2.reserve(100, 10, 1)
	if got := tl2.earliestFit(0, 95, 2, 8); got != 118 {
		t.Fatalf("pre-gap fit at %d, want 118 (cannot end within 8 of 100)", got)
	}
	if got := tl2.earliestFit(0, 92, 2, 8); got != 0 {
		t.Fatalf("short request fit at %d, want 0 (ends at 92, gap respected)", got)
	}
}

func TestTimelineMergeSameOwner(t *testing.T) {
	var tl timeline
	tl.reserve(0, 10, 1)
	tl.reserve(10, 10, 1)
	if len(tl.live()) != 1 || tl.live()[0].e != 20 {
		t.Fatalf("adjacent same-owner intervals should merge: %+v", tl.live())
	}
	tl.reserve(20, 10, 2) // different owner: no merge
	if len(tl.live()) != 2 {
		t.Fatalf("different owners must not merge: %+v", tl.live())
	}
}

func TestTimelineOverlapPanics(t *testing.T) {
	var tl timeline
	tl.reserve(0, 10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping reservation should panic")
		}
	}()
	tl.reserve(5, 10, 2)
}

func TestTimelinePruneKeepsLast(t *testing.T) {
	var tl timeline
	tl.reserve(0, 10, 1)
	tl.reserve(20, 10, 2)
	tl.reserve(40, 10, 3)
	tl.prune(100)
	// The most recent interval stays so switching gaps remain visible.
	if len(tl.live()) != 1 || tl.live()[0].owner != 3 {
		t.Fatalf("prune should keep the last interval: %+v", tl.live())
	}
}

// Property: reservations produced by earliestFit never overlap, for any
// sequence of owners/durations with any switching gap.
func TestTimelineNoOverlapProperty(t *testing.T) {
	f := func(ops []uint16, gap uint8) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("reservation overlap")
			}
		}()
		var tl timeline
		for _, op := range ops {
			owner := int32(op % 3)
			dur := sim.Time(op%50) + 1
			earliest := sim.Time(op % 97)
			s := tl.earliestFit(earliest, dur, owner, sim.Time(gap%20))
			if s < earliest {
				return false
			}
			tl.reserve(s, dur, owner)
		}
		// Verify sortedness and disjointness.
		for i := 1; i < len(tl.live()); i++ {
			if tl.live()[i-1].e > tl.live()[i].s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a same-owner fit is never later than a different-owner fit
// for the same request.
func TestTimelineOwnerAdvantageProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		var tl timeline
		for _, op := range ops {
			dur := sim.Time(op%40) + 1
			s := tl.earliestFit(0, dur, int32(op%2), 10)
			tl.reserve(s, dur, int32(op%2))
		}
		same := tl.earliestFit(0, 16, 0, 10)
		// owner 2 never appeared: it pays gaps everywhere.
		other := tl.earliestFit(0, 16, 2, 10)
		return same <= other
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refTimeline is the seed (pre-optimization) timeline algorithm: a plain
// sorted slice with linear scans and re-slicing prune. It is kept here as
// the reference model for the differential property test below — the
// cursor-based timeline must stay observably identical to it.
type refTimeline struct {
	iv []interval
}

func (t *refTimeline) prune(now sim.Time) {
	i := 0
	for i < len(t.iv) && t.iv[i].e <= now {
		i++
	}
	if i > 1 {
		t.iv = t.iv[i-1:]
	}
}

func (t *refTimeline) earliestFit(earliest, dur sim.Time, owner int32, gap sim.Time) sim.Time {
	start := earliest
	n := len(t.iv)
	for i := 0; i <= n; i++ {
		if i > 0 {
			min := t.iv[i-1].e
			if t.iv[i-1].owner != owner {
				min += gap
			}
			if start < min {
				start = min
			}
		}
		if i == n {
			return start
		}
		limit := t.iv[i].s
		if t.iv[i].owner != owner {
			limit -= gap
		}
		if start+dur <= limit {
			return start
		}
	}
	return start
}

func (t *refTimeline) reserve(s, dur sim.Time, owner int32) {
	e := s + dur
	lo, hi := 0, len(t.iv)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.iv[mid].s < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	mergePrev := lo > 0 && t.iv[lo-1].e == s && t.iv[lo-1].owner == owner
	mergeNext := lo < len(t.iv) && t.iv[lo].s == e && t.iv[lo].owner == owner
	switch {
	case mergePrev && mergeNext:
		t.iv[lo-1].e = t.iv[lo].e
		t.iv = append(t.iv[:lo], t.iv[lo+1:]...)
	case mergePrev:
		t.iv[lo-1].e = e
	case mergeNext:
		t.iv[lo].s = s
	default:
		t.iv = append(t.iv, interval{})
		copy(t.iv[lo+1:], t.iv[lo:])
		t.iv[lo] = interval{s: s, e: e, owner: owner}
	}
}

// TestTimelineInterleavedProperty interleaves earliestFit/reserve/prune
// across many owners with a monotonically advancing clock — the exact
// call pattern EIB.TransferCB produces — and checks, after every step, that
// the optimized timeline (a) matches the seed reference implementation
// fit-for-fit and interval-for-interval, and (b) keeps its live intervals
// sorted, disjoint and switching-gap-respecting. This is the invariant
// the cursor/free-slot optimization must preserve.
func TestTimelineInterleavedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42)) // fixed seed: reproducible
	for trial := 0; trial < 50; trial++ {
		var opt timeline
		var ref refTimeline
		gap := sim.Time(rng.Intn(3) * 8)
		now := sim.Time(0)
		for step := 0; step < 400; step++ {
			// The simulator's clock only moves forward; prune is always
			// called with now <= earliest.
			now += sim.Time(rng.Intn(40))
			if rng.Intn(3) == 0 {
				opt.prune(now)
				ref.prune(now)
			}
			owner := int32(rng.Intn(5))
			dur := sim.Time(rng.Intn(60) + 1)
			earliest := now + sim.Time(rng.Intn(50))
			got := opt.earliestFit(earliest, dur, owner, gap)
			want := ref.earliestFit(earliest, dur, owner, gap)
			if got != want {
				t.Fatalf("trial %d step %d: earliestFit(%d,%d,%d,%d) = %d, reference = %d\nopt: %+v\nref: %+v",
					trial, step, earliest, dur, owner, gap, got, want, opt.live(), ref.iv)
			}
			if got < earliest {
				t.Fatalf("fit %d before earliest %d", got, earliest)
			}
			if rng.Intn(4) != 0 { // reserve most fits, like the scheduler
				opt.reserve(got, dur, owner)
				ref.reserve(got, dur, owner)
			}
			live := opt.live()
			if len(live) != len(ref.iv) {
				t.Fatalf("trial %d step %d: %d live intervals, reference has %d", trial, step, len(live), len(ref.iv))
			}
			for i := range live {
				if live[i] != ref.iv[i] {
					t.Fatalf("trial %d step %d: interval %d diverged: %+v vs %+v", trial, step, i, live[i], ref.iv[i])
				}
				if i == 0 {
					continue
				}
				prev := live[i-1]
				if prev.e > live[i].s {
					t.Fatalf("intervals overlap: %+v then %+v", prev, live[i])
				}
				// Every reservation came from earliestFit, which enforces
				// the switching gap on both sides, so cross-owner
				// neighbours must never sit closer than the gap.
				if prev.owner != live[i].owner && live[i].s-prev.e < gap {
					t.Fatalf("switching gap violated between %+v and %+v (gap %d)", prev, live[i], gap)
				}
			}
		}
	}
}

// FuzzTimeline drives random reservation sequences through the first-fit
// search and asserts the no-overlap invariant (reserve panics on overlap,
// so survival plus a sorted-disjoint check is the property).
func FuzzTimeline(f *testing.F) {
	f.Add([]byte{1, 10, 0, 2, 20, 5, 1, 10, 0})
	f.Add([]byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tl timeline
		for i := 0; i+2 < len(data); i += 3 {
			owner := int32(data[i] % 4)
			dur := sim.Time(data[i+1]%60) + 1
			earliest := sim.Time(data[i+2])
			s := tl.earliestFit(earliest, dur, owner, 8)
			if s < earliest {
				t.Fatalf("fit %d before earliest %d", s, earliest)
			}
			tl.reserve(s, dur, owner)
		}
		for i := 1; i < len(tl.live()); i++ {
			if tl.live()[i-1].e > tl.live()[i].s {
				t.Fatal("intervals overlap")
			}
		}
	})
}
