package sim

import "testing"

// serverProbe is a Callee that records completions in order and, while
// refill is positive, re-requests itself on every completion so the
// server never drains.
type serverProbe struct {
	s      *Server
	id     int
	log    *[]int
	starts *[]Time
	refill int
	dur    Time
}

func (p *serverProbe) Call(start Time) {
	if p.log != nil {
		*p.log = append(*p.log, p.id)
		*p.starts = append(*p.starts, start)
	}
	if p.refill > 0 {
		p.refill--
		p.s.Request(p.dur, p)
	}
}

// TestServerFIFOOrder checks service order by identity: requests of mixed
// durations, some issued from inside a completion, are served strictly in
// arrival order, each starting when its predecessor ends.
func TestServerFIFOOrder(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	var log []int
	var starts []Time
	durs := []Time{5, 1, 7, 3}
	for i, d := range durs {
		s.Request(d, &serverProbe{s: s, id: i, log: &log, starts: &starts})
	}
	// The last request re-requests itself once on completion, from
	// inside the completion event.
	s.Request(4, &serverProbe{s: s, id: 9, log: &log, starts: &starts, refill: 1, dur: 2})
	e.Run()
	wantIDs := []int{0, 1, 2, 3, 9, 9}
	wantStarts := []Time{0, 5, 6, 13, 16, 20}
	if len(log) != len(wantIDs) {
		t.Fatalf("served %v, want %v", log, wantIDs)
	}
	for i := range wantIDs {
		if log[i] != wantIDs[i] || starts[i] != wantStarts[i] {
			t.Fatalf("served %v starting %v, want %v starting %v", log, starts, wantIDs, wantStarts)
		}
	}
}

// TestServerSteadyStateAllocs holds a server with a standing backlog to
// zero allocations: the waiting queue must reuse its backing array rather
// than crawl through it and reallocate.
func TestServerSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	probes := make([]*serverProbe, 4)
	for i := range probes {
		probes[i] = &serverProbe{s: s, id: i, dur: 3}
	}
	round := func() {
		for _, p := range probes {
			p.refill = 500
			s.Request(p.dur, p)
		}
		e.Run()
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if got := testing.AllocsPerRun(10, round); got != 0 {
		t.Fatalf("steady-state server traffic allocates %.1f times per round, want 0", got)
	}
	if s.QueueLen() != 0 || cap(s.queue) > 8 {
		t.Fatalf("drained queue len %d cap %d: backing array not reused", s.QueueLen(), cap(s.queue))
	}
}

// TestServerResetInService resets a server with one request in service
// and one waiting (the engine reset alongside, as the warm-recycling path
// does): neither completion may fire, and the server must behave like a
// new one afterwards.
func TestServerResetInService(t *testing.T) {
	e := NewEngine()
	s := NewServer(e)
	fired := 0
	s.Request(10, CalleeFunc(func(Time) { fired++ }))
	s.Request(10, CalleeFunc(func(Time) { fired++ }))
	if s.QueueLen() != 1 || s.BusyUntil() != 10 {
		t.Fatalf("before reset: queue %d busy until %d, want 1 and 10", s.QueueLen(), s.BusyUntil())
	}
	e.Reset()
	s.Reset()
	if s.QueueLen() != 0 || s.BusyUntil() != 0 {
		t.Fatalf("after reset: queue %d busy until %d, want an idle server", s.QueueLen(), s.BusyUntil())
	}
	var start, end Time = -1, -1
	s.Request(4, CalleeFunc(func(st Time) { start, end = st, e.Now() }))
	e.Run()
	if fired != 0 {
		t.Fatalf("%d pre-reset completions fired", fired)
	}
	if start != 0 || end != 4 {
		t.Fatalf("post-reset request served [%d, %d), want [0, 4)", start, end)
	}
}
