package sim

// Server models a resource that serves requests one at a time, each
// occupying the resource for a caller-specified number of cycles. Requests
// are granted in FIFO order. It is the building block for memory banks,
// link ports and similar rate-limited hardware.
//
// Requests carry a Callee rather than a closure, and the service-end event
// targets the server itself, so a steady stream of requests schedules
// without allocating: the waiting queue reuses its backing array, and
// callers pass pooled completion records.
type Server struct {
	eng       *Engine
	busyUntil Time
	queue     []serverReq // queue[head:] are waiting
	head      int
	cur       serverReq // the request in service
	inService bool
}

type serverReq struct {
	dur Time
	cb  Callee
}

// NewServer returns an idle server bound to eng.
func NewServer(eng *Engine) *Server { return &Server{eng: eng} }

// Reset returns the server to its idle NewServer state, keeping the queue
// slice's capacity. Part of the warm-system recycling path; the caller
// guarantees no service-completion event is still pending on the engine.
func (s *Server) Reset() {
	s.busyUntil = 0
	clear(s.queue)
	s.queue = s.queue[:0]
	s.head = 0
	s.cur = serverReq{}
	s.inService = false
}

// BusyUntil returns the time the server becomes free given current
// reservations.
func (s *Server) BusyUntil() Time { return s.busyUntil }

// QueueLen returns the number of requests waiting (not yet started).
func (s *Server) QueueLen() int { return len(s.queue) - s.head }

// Request enqueues a request occupying the server for dur cycles.
// cb.Call(start) runs when the occupation *ends*, with the time service
// started; the next waiting request starts right after it returns.
func (s *Server) Request(dur Time, cb Callee) {
	if len(s.queue) == cap(s.queue) && s.head > 0 {
		// Slide the waiting requests to the front instead of growing.
		n := copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue, s.head = s.queue[:n], 0
	}
	s.queue = append(s.queue, serverReq{dur: dur, cb: cb})
	if !s.inService {
		s.startNext()
	}
}

func (s *Server) startNext() {
	if s.head == len(s.queue) {
		s.queue, s.head = s.queue[:0], 0
		s.inService = false
		return
	}
	s.inService = true
	s.cur = s.queue[s.head]
	s.queue[s.head] = serverReq{}
	s.head++
	start := s.eng.Now()
	if start < s.busyUntil {
		start = s.busyUntil
	}
	end := start + s.cur.dur
	s.busyUntil = end
	s.eng.AtCallee(end, (*serverEnd)(s), start)
}

// serverEnd is the server's service-end event target: the server itself,
// under a type whose Call stays out of the exported API.
type serverEnd Server

// Call completes the request in service, then starts the next.
func (e *serverEnd) Call(start Time) {
	s := (*Server)(e)
	cb := s.cur.cb
	s.cur = serverReq{}
	cb.Call(start)
	s.startNext()
}

// CalleeFunc adapts an ordinary function to the Callee interface, the way
// http.HandlerFunc adapts one to http.Handler. A func value is a single
// pointer, so the conversion itself does not allocate.
type CalleeFunc func(at Time)

// Call runs f(at).
func (f CalleeFunc) Call(at Time) { f(at) }

// Reserve occupies the server for dur cycles starting no earlier than
// earliest, without queueing semantics: it finds the first gap at or after
// max(earliest, busyUntil) and returns the start time. Used by timetable
// schedulers (the EIB) where the caller plans ahead.
func (s *Server) Reserve(earliest Time, dur Time) (start Time) {
	start = earliest
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start + dur
	return start
}

// TokenBucket rate-limits discrete operations: at most one token every
// interval cycles, with no burst beyond the single slot. Take returns the
// time the token is granted (>= now).
type TokenBucket struct {
	eng      *Engine
	interval Time
	nextFree Time
}

// NewTokenBucket returns a bucket granting one token per interval cycles.
func NewTokenBucket(eng *Engine, interval Time) *TokenBucket {
	return &TokenBucket{eng: eng, interval: interval}
}

// Reset re-arms the bucket as NewTokenBucket(eng, interval) would,
// for warm-system recycling.
func (b *TokenBucket) Reset(interval Time) {
	b.interval = interval
	b.nextFree = 0
}

// Take reserves the next token at or after earliest and returns its grant
// time.
func (b *TokenBucket) Take(earliest Time) Time {
	t := earliest
	if b.nextFree > t {
		t = b.nextFree
	}
	b.nextFree = t + b.interval
	return t
}
