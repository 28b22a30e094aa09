package xdr

import (
	"bytes"
	"testing"
	"testing/quick"

	"cellbe/internal/eib"
	"cellbe/internal/sim"
)

func newMem(interleave bool) (*sim.Engine, *Memory) {
	eng := sim.NewEngine()
	bus := eib.New(eng, eib.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Interleave = interleave
	cfg.RefreshPeriod = 0 // most tests want exact timing
	return eng, New(eng, bus, cfg)
}

func TestRAMReadWriteRoundTrip(t *testing.T) {
	r := NewRAM(1<<20, 64<<10)
	data := []byte("hello, cell broadband engine")
	r.Write(12345, data)
	got := make([]byte, len(data))
	r.Read(12345, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip got %q, want %q", got, data)
	}
}

func TestRAMCrossPage(t *testing.T) {
	r := NewRAM(1<<20, 64<<10)
	addr := int64(64<<10) - 5
	data := []byte("0123456789")
	r.Write(addr, data)
	got := make([]byte, len(data))
	r.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-page round trip got %q, want %q", got, data)
	}
	if r.TouchedPages() != 2 {
		t.Fatalf("touched %d pages, want 2", r.TouchedPages())
	}
}

func TestRAMUntouchedReadsZero(t *testing.T) {
	r := NewRAM(1<<20, 64<<10)
	got := make([]byte, 16)
	for i := range got {
		got[i] = 0xff
	}
	r.Read(999, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("untouched memory must read as zero")
		}
	}
	if r.TouchedPages() != 0 {
		t.Fatal("reads must not materialize pages")
	}
}

func TestRAMOutOfRangePanics(t *testing.T) {
	r := NewRAM(1<<20, 64<<10)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range access should panic")
		}
	}()
	r.Write((1<<20)-4, make([]byte, 8))
}

// Property: writes then reads of arbitrary payloads at arbitrary offsets
// round-trip.
func TestRAMRoundTripProperty(t *testing.T) {
	r := NewRAM(1<<20, 4<<10)
	f := func(off uint16, payload []byte) bool {
		if len(payload) == 0 {
			return true
		}
		addr := int64(off) % (1<<20 - int64(len(payload)))
		r.Write(addr, payload)
		got := make([]byte, len(payload))
		r.Read(addr, got)
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBankInterleave(t *testing.T) {
	_, m := newMem(true)
	page := m.Config().PageBytes
	// The configured ratio must hold over any window of 10 pages, with
	// remote pages spread out rather than clustered.
	remote := 0
	maxRun := 0
	run := 0
	for i := int64(0); i < 10; i++ {
		if m.Bank(i*page) == 1 {
			remote++
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	want := m.Config().RemotePagesPer10
	if remote != want {
		t.Fatalf("%d of 10 pages remote, want %d", remote, want)
	}
	if maxRun > 1 {
		t.Fatalf("remote pages clustered (run of %d)", maxRun)
	}
	local := int64(0)
	if m.Bank(local) != 0 {
		// find a local page for the ramp check
		for m.Bank(local) != 0 {
			local += page
		}
	}
	remoteAddr := int64(0)
	for m.Bank(remoteAddr) != 1 {
		remoteAddr += page
	}
	if m.Ramp(local) != eib.RampMIC || m.Ramp(remoteAddr) != eib.RampIOIF0 {
		t.Fatal("bank ramps wrong")
	}
}

func TestBankContiguous(t *testing.T) {
	_, m := newMem(false)
	half := m.Config().TotalBytes / 2
	if m.Bank(0) != 0 || m.Bank(half-1) != 0 || m.Bank(half) != 1 {
		t.Fatal("contiguous bank split wrong")
	}
}

func TestReadDeliversData(t *testing.T) {
	eng, m := newMem(true)
	want := []byte("cell blade payload, 32 bytes ok!")
	m.RAM().Write(4096, want)
	got := make([]byte, len(want))
	doneAt := sim.Time(0)
	m.Read(eib.RampSPE0, 4096, len(want), 0, got, sim.CalleeFunc(func(e sim.Time) { doneAt = e }))
	eng.Run()
	if !bytes.Equal(got, want) {
		t.Fatalf("read %q, want %q", got, want)
	}
	if doneAt <= 0 {
		t.Fatal("done must fire with a positive end time")
	}
	st := m.BankStats(0)
	if st.ReadBytes != int64(len(want)) {
		t.Fatalf("bank read bytes %d, want %d", st.ReadBytes, len(want))
	}
}

func TestWriteDeliversData(t *testing.T) {
	eng, m := newMem(true)
	want := []byte("written through the MIC")
	done := false
	m.Write(eib.RampSPE0, 8192, len(want), 0, want, sim.CalleeFunc(func(sim.Time) { done = true }))
	eng.Run()
	if !done {
		t.Fatal("write did not complete")
	}
	got := make([]byte, len(want))
	m.RAM().Read(8192, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("memory holds %q, want %q", got, want)
	}
}

func TestReadLatencyLocalVsRemote(t *testing.T) {
	eng, m := newMem(true)
	page := m.Config().PageBytes
	remoteAddr := int64(0)
	for m.Bank(remoteAddr) != 1 {
		remoteAddr += page
	}
	var localEnd, remoteEnd sim.Time
	m.Read(eib.RampSPE0, 0, 128, 0, nil, sim.CalleeFunc(func(e sim.Time) { localEnd = e }))
	eng.Run()
	m.Read(eib.RampSPE0, remoteAddr, 128, eng.Now(), nil, sim.CalleeFunc(func(e sim.Time) { remoteEnd = e }))
	start := eng.Now()
	eng.Run()
	if remoteEnd-start <= localEnd {
		t.Fatalf("remote read (%d) must be slower than local (%d)", remoteEnd-start, localEnd)
	}
}

func TestLineCrossingPanics(t *testing.T) {
	_, m := newMem(true)
	defer func() {
		if recover() == nil {
			t.Fatal("line-crossing request should panic")
		}
	}()
	m.Read(eib.RampSPE0, 100, 64, 0, nil, sim.CalleeFunc(func(sim.Time) {}))
}

func TestOversizeRequestPanics(t *testing.T) {
	_, m := newMem(true)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize request should panic")
		}
	}()
	m.Read(eib.RampSPE0, 0, 256, 0, nil, sim.CalleeFunc(func(sim.Time) {}))
}

// Bank throughput: N back-to-back line reads from one bank cannot finish
// faster than N * service time.
func TestBankServiceRateLimits(t *testing.T) {
	eng, m := newMem(false) // contiguous: all in bank 0
	const n = 100
	var last sim.Time
	for i := 0; i < n; i++ {
		m.Read(eib.RampSPE0, int64(i)*128, 128, 0, nil, sim.CalleeFunc(func(e sim.Time) { last = e }))
	}
	eng.Run()
	min := sim.Time(n) * m.Config().LocalServiceCycles
	if last < min {
		t.Fatalf("%d reads finished at %d, faster than bank service floor %d", n, last, min)
	}
	// And not absurdly slower: latency is pipelined, so the total should
	// be service time plus one latency tail, within slack.
	max := min + m.Config().LocalReadLatency + 500
	if last > max {
		t.Fatalf("%d reads finished at %d, want <= %d (latency must pipeline)", n, last, max)
	}
}

// Remote bank is capped by the IOIF link at ~7 GB/s: service 38 cycles per
// line vs 16 locally.
func TestRemoteSlowerThanLocalThroughput(t *testing.T) {
	measure := func(addr0 int64) sim.Time {
		eng, m := newMem(false)
		var last sim.Time
		for i := 0; i < 50; i++ {
			m.Read(eib.RampSPE0, addr0+int64(i)*128, 128, 0, nil, sim.CalleeFunc(func(e sim.Time) { last = e }))
		}
		eng.Run()
		return last
	}
	local := measure(0)
	remote := measure(256 << 20)
	if remote <= local {
		t.Fatalf("remote stream (%d) must be slower than local (%d)", remote, local)
	}
}

func TestTurnaroundPenalty(t *testing.T) {
	// Use an exaggerated turnaround so the mechanism dominates the small
	// latency differences between the read and write completion paths.
	runPattern := func(alternate bool) sim.Time {
		eng := sim.NewEngine()
		bus := eib.New(eng, eib.DefaultConfig())
		cfg := DefaultConfig()
		cfg.Interleave = false
		cfg.RefreshPeriod = 0
		cfg.TurnaroundCycles = 50
		m := New(eng, bus, cfg)
		var last sim.Time
		buf := make([]byte, 128)
		for i := 0; i < 40; i++ {
			addr := int64(i) * 128
			if alternate && i%2 == 1 {
				m.Write(eib.RampSPE0, addr, 128, 0, buf, sim.CalleeFunc(func(e sim.Time) { last = e }))
			} else {
				m.Read(eib.RampSPE0, addr, 128, 0, nil, sim.CalleeFunc(func(e sim.Time) { last = e }))
			}
		}
		eng.Run()
		return last
	}
	pure := runPattern(false)
	mixed := runPattern(true)
	if mixed <= pure {
		t.Fatalf("alternating read/write (%d) must pay turnaround vs pure reads (%d)", mixed, pure)
	}
}

func TestRefreshStealsBandwidth(t *testing.T) {
	run := func(refresh bool) sim.Time {
		eng := sim.NewEngine()
		bus := eib.New(eng, eib.DefaultConfig())
		cfg := DefaultConfig()
		cfg.Interleave = false
		if !refresh {
			cfg.RefreshPeriod = 0
		}
		m := New(eng, bus, cfg)
		var last sim.Time
		for i := 0; i < 2000; i++ {
			m.Read(eib.RampSPE0, int64(i)*128, 128, 0, nil, sim.CalleeFunc(func(e sim.Time) { last = e }))
		}
		eng.Run()
		return last
	}
	with := run(true)
	without := run(false)
	if with <= without {
		t.Fatalf("refresh must slow a saturating stream: with=%d without=%d", with, without)
	}
}

// FuzzRAM round-trips random writes through the sparse page store.
func FuzzRAM(f *testing.F) {
	f.Add(int64(0), []byte("seed"))
	f.Add(int64(65530), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) // page crossing
	f.Fuzz(func(t *testing.T, addr int64, payload []byte) {
		if len(payload) == 0 || len(payload) > 1<<16 {
			return
		}
		r := NewRAM(1<<20, 64<<10)
		if addr < 0 {
			addr = -addr
		}
		addr %= 1<<20 - int64(len(payload))
		r.Write(addr, payload)
		got := make([]byte, len(payload))
		r.Read(addr, got)
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip mismatch at %#x", addr)
		}
	})
}

// TestRecycledPagesComeBackZeroed dirties whole pages, hands them back to
// the page pool the two ways a system does — RAM.Reset when a dead
// system is released, Memory.Reset when a warm one is recycled — and
// checks that every page then reads zero, including pages re-materialized
// by a one-byte write (the ones most likely to be recycled).
func TestRecycledPagesComeBackZeroed(t *testing.T) {
	const page, pages = 64 << 10, 4
	dirty := bytes.Repeat([]byte{0xA5}, page)
	dirtyAll := func(r *RAM) {
		for i := 0; i < pages; i++ {
			r.Write(int64(i)*page, dirty)
		}
	}
	check := func(r *RAM, how string) {
		t.Helper()
		if r.TouchedPages() != 0 {
			t.Fatalf("%s: %d pages still materialized", how, r.TouchedPages())
		}
		got := make([]byte, page)
		for i := 0; i < pages; i++ {
			r.Read(int64(i)*page, got)
			if !bytes.Equal(got, make([]byte, page)) {
				t.Fatalf("%s: page %d reads non-zero before any write", how, i)
			}
			r.Write(int64(i)*page+7, []byte{1})
			r.Read(int64(i)*page, got)
			for j, b := range got {
				if j != 7 && b != 0 {
					t.Fatalf("%s: re-materialized page %d byte %d = %#x, want it zeroed", how, i, j, b)
				}
			}
		}
	}
	for round := 0; round < 3; round++ {
		r := NewRAM(1<<20, page)
		dirtyAll(r)
		r.Reset()
		check(r, "after RAM.Reset")
		dirtyAll(r)
		r.Reset()
		check(NewRAM(1<<20, page), "fresh RAM after another's Reset")

		_, m := newMem(true)
		dirtyAll(m.RAM())
		m.Reset(m.Config())
		check(m.RAM(), "after Memory.Reset")
	}
}
