package cell

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
)

// recycleSignature boots a system, runs sc with every local store filled
// with a lane-specific pattern, and digests the run: end cycle, events
// fired, both banks' statistics, and the bytes of every local store and
// of all allocated memory (gaps between regions included).
func recycleSignature(t *testing.T, sc Scenario) string {
	t.Helper()
	sys := New(DefaultConfig())
	defer sys.Release()
	if _, err := sc.Install(sys); err != nil {
		t.Fatalf("install %s: %v", sc.Kind, err)
	}
	for i, sp := range sys.SPEs {
		ls := sp.LS()
		for off := 0; off+8 <= len(ls); off += 8 {
			binary.LittleEndian.PutUint64(ls[off:], uint64(i+1)<<32|uint64(off))
		}
	}
	if err := sys.RunChecked(0); err != nil {
		t.Fatalf("run %s: %v", sc.Kind, err)
	}
	h := sha256.New()
	for _, sp := range sys.SPEs {
		h.Write(sp.LS())
	}
	buf := make([]byte, sys.cfg.Mem.PageBytes)
	for addr := int64(0); addr < sys.allocNext; addr += int64(len(buf)) {
		n := min(int64(len(buf)), sys.allocNext-addr)
		sys.Mem.RAM().Read(addr, buf[:n])
		h.Write(buf[:n])
	}
	return fmt.Sprintf("now=%d fired=%d bank0=%+v bank1=%+v data=%x", sys.Eng.Now(), sys.Eng.Fired(),
		sys.Mem.BankStats(0), sys.Mem.BankStats(1), h.Sum(nil))
}

// TestRecycledPagesMatchFreshBoot runs points back to back on one
// goroutine, so each boots on the RAM pages and local stores the previous
// one released dirty, and checks each against a boot from empty pools.
// GUPS scatters elements over its whole table, leaving many pages dirty
// in a few places; the mem put then writes half of each page it touches
// (32 KB regions on 64 KB pages), so a page that came back stale shows in
// the other half. Both orders run.
func TestRecycledPagesMatchFreshBoot(t *testing.T) {
	gups := Scenario{Kind: "gups", SPEs: 8, Chunk: 64, Volume: 32 << 10, Op: "both"}
	mem := Scenario{Kind: "mem", SPEs: 8, Chunk: 4096, Volume: 32 << 10, Op: "put"}
	fresh := func(sc Scenario) string {
		// Two collections empty the buffer pools (the second drops the
		// victim cache).
		runtime.GC()
		runtime.GC()
		return recycleSignature(t, sc)
	}
	freshGups, freshMem := fresh(gups), fresh(mem)
	for _, order := range [][]Scenario{{gups, mem}, {mem, gups}, {gups, gups}} {
		for _, sc := range order {
			want := freshMem
			if sc.Kind == "gups" {
				want = freshGups
			}
			if got := recycleSignature(t, sc); got != want {
				t.Errorf("%s after %s on recycled buffers diverged from a fresh boot\n got: %s\nwant: %s",
					sc.Kind, order[0].Kind, got, want)
			}
		}
	}
}
