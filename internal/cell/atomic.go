package cell

import (
	"fmt"

	"cellbe/internal/sim"
	"cellbe/internal/xdr"
)

// Lock-line reservation registry: the coherence point of the machine.
// GETLLAR places a reservation on a 128-byte line for one SPE; any write
// to the line — DMA from any SPE, a PPE writeback, or a winning PUTLLC —
// kills every reservation on it. This is what makes SPE spinlocks and
// atomic counters work on real Cell hardware.

type reservations struct {
	byLine map[int64]map[int]bool // line address -> reserving owners
}

func newReservations() *reservations {
	return &reservations{byLine: make(map[int64]map[int]bool)}
}

func (r *reservations) place(owner int, line int64) {
	set := r.byLine[line]
	if set == nil {
		set = make(map[int]bool)
		r.byLine[line] = set
	}
	set[owner] = true
}

func (r *reservations) holds(owner int, line int64) bool {
	return r.byLine[line][owner]
}

func (r *reservations) kill(line int64) {
	delete(r.byLine, line)
}

func lineOf(ea int64) int64 { return ea &^ (xdr.LineBytes - 1) }

// atomicLatency is the extra cost of the reservation bookkeeping relative
// to a plain line access.
const atomicLatency sim.Time = 20

// memDone is a pooled completion record for a main-memory line access
// whose completion passes the coherence point before its caller hears of
// it: a store kills the line's reservations, a GETLLAR places one, a
// PUTLLC checks and clears one. It holds what the per-access closures of
// those paths used to capture and recycles through a free list on System,
// like pktDone.
type memDone struct {
	sys   *System
	kind  memDoneKind
	ea    int64
	owner int
	src   []byte
	ok    bool
	done  sim.Callee
	cond  func(end sim.Time, ok bool)
	next  *memDone // free-list link
}

// memDoneKind selects what a memDone does at the coherence point.
type memDoneKind uint8

const (
	doneStore      memDoneKind = iota // kill the line's reservations, then done
	doneLocked                        // place owner's reservation; done after atomicLatency
	doneCondWrite                     // PUTLLC landed: store if still reserved, clear, report after atomicLatency
	doneCondReport                    // deliver the PUTLLC outcome to cond
)

func (s *System) getMemDone(kind memDoneKind, ea int64, done sim.Callee) *memDone {
	d := s.memFree
	if d == nil {
		d = &memDone{sys: s}
	} else {
		s.memFree = d.next
	}
	d.kind, d.ea, d.done = kind, ea, done
	return d
}

// release returns the record to the free list. Callers read what they
// still need first: the completion they invoke next may reuse it.
func (d *memDone) release() {
	sys := d.sys
	*d = memDone{sys: sys, next: sys.memFree}
	sys.memFree = d
}

// Call runs the record's coherence-point action for an access completed
// at end.
func (d *memDone) Call(end sim.Time) {
	sys, line := d.sys, lineOf(d.ea)
	switch d.kind {
	case doneStore:
		sys.resv.kill(line)
		done := d.done
		d.release()
		done.Call(end)
	case doneLocked:
		sys.resv.place(d.owner, line)
		fin, done := end+atomicLatency, d.done
		d.release()
		sys.Eng.AtCallee(fin, done, fin)
	case doneCondWrite:
		// The reservation is checked again at the coherence point when the
		// write lands (another write may race in between).
		d.ok = sys.resv.holds(d.owner, line)
		if d.ok {
			sys.Mem.RAM().Write(d.ea, d.src[:xdr.LineBytes])
		}
		sys.resv.kill(line) // success or failure, this attempt clears it
		d.kind = doneCondReport
		fin := end + atomicLatency
		sys.Eng.AtCallee(fin, d, fin)
	case doneCondReport:
		cond, ok := d.cond, d.ok
		d.release()
		cond(end, ok)
	}
}

// ReadLocked implements mfc.AtomicFabric: a line read plus a reservation.
func (f *fabric) ReadLocked(owner int, ea int64, earliest sim.Time, dst []byte, done func(end sim.Time)) {
	sys := f.sys
	if _, _, isLS := sys.resolveLS(ea); isLS {
		panic(fmt.Sprintf("cell: atomics require a main-memory EA, got LS address %#x", ea))
	}
	d := sys.getMemDone(doneLocked, ea, sim.CalleeFunc(done))
	d.owner = owner
	sys.Mem.Read(f.ramp, ea, xdr.LineBytes, earliest, dst, d)
}

// CondWrite implements mfc.AtomicFabric: a conditional line store that
// succeeds only while the owner's reservation holds.
func (f *fabric) CondWrite(owner int, ea int64, earliest sim.Time, src []byte, done func(end sim.Time, ok bool)) {
	sys := f.sys
	if _, _, isLS := sys.resolveLS(ea); isLS {
		panic(fmt.Sprintf("cell: atomics require a main-memory EA, got LS address %#x", ea))
	}
	if !sys.resv.holds(owner, lineOf(ea)) {
		// Lost reservation: fail fast after the command round trip.
		end := sys.Bus.Command(earliest) + atomicLatency
		d := sys.getMemDone(doneCondReport, ea, nil)
		d.cond = done
		sys.Eng.AtCallee(end, d, end)
		return
	}
	d := sys.getMemDone(doneCondWrite, ea, nil)
	d.owner, d.src, d.cond = owner, src, done
	sys.Mem.Write(f.ramp, ea, xdr.LineBytes, earliest, nil, d)
}
