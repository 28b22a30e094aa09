package ppe

import (
	"testing"
	"testing/quick"

	"cellbe/internal/sim"
)

// fakeMem is a MemoryPort with fixed latency and a simple service rate.
type fakeMem struct {
	eng     *sim.Engine
	latency sim.Time
	srv     *sim.Server
	reads   int64
	writes  int64
}

func newFakeMem(eng *sim.Engine, latency sim.Time) *fakeMem {
	return &fakeMem{eng: eng, latency: latency, srv: sim.NewServer(eng)}
}

func (f *fakeMem) ReadLine(addr int64, earliest sim.Time, done func(end sim.Time)) {
	f.reads++
	f.srv.Request(16, sim.CalleeFunc(func(sim.Time) {
		end := f.eng.Now() + f.latency
		f.eng.At(end, func() { done(end) })
	}))
}

func (f *fakeMem) WriteLine(addr int64, earliest sim.Time, done func(end sim.Time)) {
	f.writes++
	f.srv.Request(16, sim.CalleeFunc(func(sim.Time) { done(f.eng.Now()) }))
}

func newPPE(latency sim.Time) (*sim.Engine, *fakeMem, *PPE) {
	eng := sim.NewEngine()
	mem := newFakeMem(eng, latency)
	return eng, mem, New(eng, mem, DefaultConfig())
}

// gbps converts bytes moved in cycles at 2.1 GHz to GB/s.
func gbps(bytes int64, cycles sim.Time) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(bytes) * 2.1 / float64(cycles)
}

// runStream runs a warmed-up stream kernel on one thread and returns the
// timed-pass bandwidth in GB/s.
func runStream(t *testing.T, op Op, bufBytes int64, elem int, latency sim.Time) float64 {
	t.Helper()
	eng, _, p := newPPE(latency)
	var cycles sim.Time
	p.Spawn(0, "kernel", func(th *Thread) {
		th.stream(op, 0, 1<<24, bufBytes, elem) // warm-up lap
		start := th.Now()
		th.stream(op, 0, 1<<24, bufBytes, elem)
		th.drainStoreQueue()
		cycles = th.Now() - start
	})
	eng.Run()
	bytes := bufBytes
	if op == Copy {
		bytes *= 2
	}
	return gbps(bytes, cycles)
}

func TestCacheArrayBasics(t *testing.T) {
	c := newCacheArray(1024, 128, 2) // 4 sets, 2 ways
	if c.Lookup(0) {
		t.Fatal("empty cache must miss")
	}
	c.Insert(0, false)
	if !c.Lookup(0) || !c.Lookup(64) {
		t.Fatal("same line must hit at any offset")
	}
	if c.Lookup(128) {
		t.Fatal("different line must miss")
	}
}

func TestCacheArrayLRUEviction(t *testing.T) {
	c := newCacheArray(1024, 128, 2) // sets of 2 ways; set = line%4
	// Three lines in set 0: 0, 512, 1024 (lines 0, 4, 8).
	c.Insert(0, false)
	c.Insert(512, true)
	c.Lookup(0) // make line 0 most recent
	ev, dirty, has := c.Insert(1024, false)
	if !has || ev != 512 || !dirty {
		t.Fatalf("evicted %d dirty=%v has=%v, want 512/dirty", ev, dirty, has)
	}
	if !c.Lookup(0) || !c.Lookup(1024) || c.Lookup(512) {
		t.Fatal("wrong lines resident after eviction")
	}
}

func TestCacheArrayMarkDirty(t *testing.T) {
	c := newCacheArray(1024, 128, 2)
	if c.MarkDirty(0) {
		t.Fatal("marking an absent line must fail")
	}
	c.Insert(0, false)
	if !c.MarkDirty(0) {
		t.Fatal("marking a present line must succeed")
	}
	c.Insert(512, false)
	ev, dirty, has := c.Insert(1024, false)
	if !has || ev != 0 || !dirty {
		t.Fatalf("dirty bit lost: evicted %d dirty=%v", ev, dirty)
	}
}

// Property: a cache with S sets and W ways never holds more than W lines
// of the same set, and inserting N <= W distinct same-set lines evicts
// nothing.
func TestCacheArrayCapacityProperty(t *testing.T) {
	f := func(n uint8) bool {
		c := newCacheArray(4096, 128, 4) // 8 sets, 4 ways
		k := int(n%4) + 1                // 1..4 same-set lines
		for i := 0; i < k; i++ {
			if _, _, has := c.Insert(int64(i)*128*8, false); has {
				return false
			}
		}
		for i := 0; i < k; i++ {
			if !c.Lookup(int64(i) * 128 * 8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestL1LoadBandwidthPlateau(t *testing.T) {
	// 16 KB buffer fits L1: pure issue-limited bandwidth, plateauing at
	// half peak (8.4 GB/s) from 8-byte elements down to 2.1 at 1 byte.
	want := map[int]float64{1: 2.1, 2: 4.2, 4: 8.4, 8: 8.4, 16: 8.4}
	for elem, w := range want {
		got := runStream(t, Load, 16<<10, elem, 400)
		if got < w*0.9 || got > w*1.1 {
			t.Errorf("L1 load %dB: %.2f GB/s, want ~%.1f", elem, got, w)
		}
	}
}

func TestL1StoreBelowLoad(t *testing.T) {
	load := runStream(t, Load, 16<<10, 16, 400)
	store := runStream(t, Store, 16<<10, 16, 400)
	if store >= load {
		t.Fatalf("16B store %.2f must be below load %.2f (drain-limited)", store, load)
	}
	if store < 3 {
		t.Fatalf("16B store %.2f unreasonably low", store)
	}
}

func TestL2LoadLatencyBound(t *testing.T) {
	// 256 KB buffer: fits L2, misses L1 every line. Bandwidth ~ line /
	// (issue + L2 latency).
	got := runStream(t, Load, 256<<10, 16, 400)
	cfg := DefaultConfig()
	want := gbps(LineBytes, cfg.L2HitLatency+cfg.LoadCost.C16*8)
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("L2 load %.2f GB/s, want ~%.2f", got, want)
	}
}

func TestMemLoadMatchesL2Load(t *testing.T) {
	// 4 MB buffer: misses L2, but the stream prefetcher hides memory
	// latency, so bandwidth must be close to the L2-resident case. This
	// is the paper's Figure 6 observation.
	l2 := runStream(t, Load, 256<<10, 8, 400)
	mem := runStream(t, Load, 4<<20, 8, 400)
	if mem < l2*0.75 {
		t.Fatalf("mem load %.2f GB/s, want close to L2 load %.2f", mem, l2)
	}
}

func TestPrefetcherIsWhatHidesMemoryLatency(t *testing.T) {
	run := func(depth int) float64 {
		eng := sim.NewEngine()
		mem := newFakeMem(eng, 400)
		cfg := DefaultConfig()
		cfg.PrefetchDepth = depth
		p := New(eng, mem, cfg)
		var cycles sim.Time
		p.Spawn(0, "k", func(th *Thread) {
			start := th.Now()
			th.StreamLoad(0, 4<<20, 8)
			cycles = th.Now() - start
		})
		eng.Run()
		return gbps(4<<20, cycles)
	}
	with := run(DefaultConfig().PrefetchDepth)
	without := run(0)
	if with < 2*without {
		t.Fatalf("prefetch on %.2f GB/s vs off %.2f: expected a large gain", with, without)
	}
}

func TestMemStoreRFOLimited(t *testing.T) {
	// Store misses must fetch lines with tiny concurrency: memory store
	// bandwidth is far below L2 store bandwidth.
	l2 := runStream(t, Store, 256<<10, 16, 400)
	mem := runStream(t, Store, 4<<20, 16, 400)
	if mem >= l2/2 {
		t.Fatalf("mem store %.2f GB/s vs L2 store %.2f: want < half", mem, l2)
	}
}

func TestTwoThreadsHelpL2(t *testing.T) {
	run := func(threads int) float64 {
		eng, _, p := newPPE(400)
		var total sim.Time
		done := 0
		for th := 0; th < threads; th++ {
			th := th
			base := int64(th) * (1 << 22)
			p.Spawn(th, "k", func(tt *Thread) {
				tt.StreamLoad(base, 256<<10, 8) // warm
				start := tt.Now()
				tt.StreamLoad(base, 256<<10, 8)
				if el := tt.Now() - start; el > total {
					total = el
				}
				done++
			})
		}
		eng.Run()
		return gbps(int64(threads)*(256<<10), total)
	}
	one := run(1)
	two := run(2)
	if two < one*1.5 {
		t.Fatalf("2 threads %.2f GB/s vs 1 thread %.2f: SMT must overlap L2 stalls", two, one)
	}
}

func TestSMTSharesIssueOnL1(t *testing.T) {
	// L1-resident loads are issue-limited: two threads split the issue
	// slots, so the aggregate stays ~the same as one thread.
	run := func(threads int) float64 {
		eng, _, p := newPPE(400)
		var slowest sim.Time
		for th := 0; th < threads; th++ {
			th := th
			base := int64(th) * (1 << 22)
			p.Spawn(th, "k", func(tt *Thread) {
				tt.StreamLoad(base, 8<<10, 8) // warm (both fit L1)
				start := tt.Now()
				for i := 0; i < 8; i++ {
					tt.StreamLoad(base, 8<<10, 8)
				}
				if el := tt.Now() - start; el > slowest {
					slowest = el
				}
			})
		}
		eng.Run()
		return gbps(int64(threads)*8*(8<<10), slowest)
	}
	one := run(1)
	two := run(2)
	if two > one*1.25 || two < one*0.75 {
		t.Fatalf("L1 loads: 2 threads %.2f GB/s vs 1 thread %.2f: want about equal", two, one)
	}
}

func TestStoreQueueStallsWhenFull(t *testing.T) {
	// With a huge drain time, the store stream must be drain-limited,
	// not issue-limited.
	eng := sim.NewEngine()
	mem := newFakeMem(eng, 50)
	cfg := DefaultConfig()
	cfg.StoreDrainCycles = 100
	p := New(eng, mem, cfg)
	var cycles sim.Time
	p.Spawn(0, "k", func(th *Thread) {
		th.StreamStore(0, 16<<10, 16) // warm L2
		start := th.Now()
		th.StreamStore(0, 16<<10, 16)
		th.drainStoreQueue()
		cycles = th.Now() - start
	})
	eng.Run()
	chunks := sim.Time(16 << 10 / 16)
	if cycles < chunks*100 {
		t.Fatalf("store stream took %d cycles, want >= %d (drain-limited)", cycles, chunks*100)
	}
}

func TestWritebacksHappen(t *testing.T) {
	eng, mem, p := newPPE(100)
	p.Spawn(0, "k", func(th *Thread) {
		// Dirty 2 MB of lines, then stream another 2 MB to force
		// evictions of dirty lines.
		th.StreamStore(0, 2<<20, 16)
		th.StreamLoad(8<<20, 2<<20, 16)
	})
	eng.Run()
	if mem.writes == 0 || p.Stats().Writebacks == 0 {
		t.Fatal("dirty evictions must write back to memory")
	}
}

func TestStatsCount(t *testing.T) {
	eng, _, p := newPPE(100)
	p.Spawn(0, "k", func(th *Thread) {
		th.StreamLoad(0, 1<<13, 8)
	})
	eng.Run()
	st := p.Stats()
	if st.Loads != (1<<13)/8 {
		t.Fatalf("loads %d, want %d", st.Loads, (1<<13)/8)
	}
	if st.L1Misses != (1<<13)/128 {
		t.Fatalf("l1 misses %d, want %d", st.L1Misses, (1<<13)/128)
	}
}

func TestBadThreadIDPanics(t *testing.T) {
	_, _, p := newPPE(100)
	defer func() {
		if recover() == nil {
			t.Fatal("bad thread id should panic")
		}
	}()
	p.Spawn(2, "k", func(*Thread) {})
}

func TestUnalignedStreamPanics(t *testing.T) {
	eng, _, p := newPPE(100)
	p.Spawn(0, "k", func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("unaligned stream should panic")
			}
			panic("rethrow") // keep the process contract: panics propagate
		}()
		th.StreamLoad(64, 1<<13, 8)
	})
	defer func() { recover() }()
	eng.Run()
}
