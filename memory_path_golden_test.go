package cellbe

// Memory-path goldens. determinismSignature pins the end cycle and the
// EIB statistics, but not how many engine events a run fired, what the
// XDR banks did, or what data ended up where. These goldens pin all of
// it for every memory-path shape (SPE DMA to and from XDR, DMA lists,
// the workload interpreter's kinds and the PPE line-fill path), healthy
// and under canonicalFaults(): the end cycle, Engine.Fired(), both
// banks' BankStats, the full perf-counter rollup, and a SHA-256 over
// every SPE local store and every RAM page the run could have touched.
//
// Local stores and every other page of the allocated memory are filled
// with a position-dependent pattern before the run, so DMA moves
// non-zero data in both directions, and the pages the run materializes
// itself must come up zero: a stale recycled page or a reordered event
// changes the data digest even where it leaves the timing alone. Runs
// release their systems, so later cases boot on recycled buffers.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"cellbe/internal/cell"
	"cellbe/internal/perfctr"
	"cellbe/internal/ppe"
)

// memPathCase is one golden shape: either a scenario or, with sc.Kind
// empty, the PPE streaming copy.
type memPathCase struct {
	name    string
	sc      cell.Scenario
	healthy string
	faulty  string
}

// ppeCopyBytes is the per-thread buffer of the PPE case: twice the L2,
// so the copy streams line fills and dirty write-backs through XDR.
const ppeCopyBytes = 1 << 20

// fillPattern writes a deterministic non-zero pattern into b, keyed by
// tag so different buffers carry different bytes.
func fillPattern(b []byte, tag uint64) {
	x := tag*0x9E3779B97F4A7C15 + 1
	for i := 0; i+8 <= len(b); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], x)
	}
}

// memPathSignature runs one case at layout seed 3 (fault seed 7 when
// faulty) with a counter block attached and folds the observable state
// into a comparable string.
func memPathSignature(t *testing.T, tc memPathCase, faulty bool) string {
	t.Helper()
	cfg := cell.DefaultConfig()
	cfg.Layout = cell.RandomLayout(3)
	if faulty {
		cfg.Faults = canonicalFaults()
		cfg.FaultSeed = 7
	}
	sys := cell.New(cfg)
	defer sys.Release()
	pc := &perfctr.Counters{}
	sys.SetPerf(pc)
	if tc.sc.Kind != "" {
		if _, err := tc.sc.Install(sys); err != nil {
			t.Fatalf("install %s: %v", tc.name, err)
		}
	} else {
		for th := 0; th < 2; th++ {
			src := sys.Alloc(ppeCopyBytes, 128)
			dst := sys.Alloc(ppeCopyBytes, 128)
			sys.PPE.Spawn(th, fmt.Sprintf("ppe%d", th), func(t *ppe.Thread) {
				t.StreamCopy(src, dst, ppeCopyBytes, 16)
			})
		}
	}

	// Everything allocated lies below the allocator's high-water mark,
	// which one more (unused) allocation reveals.
	page := cfg.Mem.PageBytes
	top := (sys.Alloc(1, page) + page - 1) / page * page
	ram := sys.Mem.RAM()
	buf := make([]byte, page)
	for addr := int64(0); addr < top; addr += 2 * page {
		fillPattern(buf, uint64(addr))
		ram.Write(addr, buf)
	}
	for i, sp := range sys.SPEs {
		fillPattern(sp.LS(), uint64(1000+i))
	}

	if err := sys.RunChecked(0); err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}

	h := sha256.New()
	for _, sp := range sys.SPEs {
		h.Write(sp.LS())
	}
	for addr := int64(0); addr < top; addr += page {
		ram.Read(addr, buf)
		h.Write(buf)
	}
	roll := pc.Rollup()
	rh := sha256.Sum256([]byte(fmt.Sprintf("%+v", roll)))
	return fmt.Sprintf("now=%d fired=%d bank0=%+v bank1=%+v pages=%d perf=%s data=%s",
		sys.Eng.Now(), sys.Eng.Fired(), sys.Mem.BankStats(0), sys.Mem.BankStats(1),
		ram.TouchedPages(), hex.EncodeToString(rh[:8]), hex.EncodeToString(h.Sum(nil)[:8]))
}

func TestMemoryPathGoldens(t *testing.T) {
	const kb = 1 << 10
	cases := []memPathCase{
		{name: "mem-get", sc: cell.Scenario{Kind: "mem", SPEs: 4, Chunk: 4096, Volume: 256 * kb, Op: "get"},
			healthy: "now=128060 fired=25232 bank0={ReadBytes:786432 WriteBytes:0 Requests:6144 Refreshes:16 FaultStalls:0} bank1={ReadBytes:262144 WriteBytes:0 Requests:2048 Refreshes:11 FaultStalls:0} pages=8 perf=211c76653d8c6363 data=1a66802f1cb5f88d",
			faulty:  "now=177435 fired=25398 bank0={ReadBytes:786432 WriteBytes:0 Requests:6144 Refreshes:21 FaultStalls:327} bank1={ReadBytes:262144 WriteBytes:0 Requests:2048 Refreshes:15 FaultStalls:101} pages=8 perf=a1ce022e45763fc0 data=1a66802f1cb5f88d"},
		{name: "mem-copy", sc: cell.Scenario{Kind: "mem", SPEs: 8, Chunk: 4096, Volume: 128 * kb, Op: "copy"},
			healthy: "now=244700 fired=58656 bank0={ReadBytes:786432 WriteBytes:786432 Requests:12288 Refreshes:24 FaultStalls:0} bank1={ReadBytes:262144 WriteBytes:262144 Requests:4096 Refreshes:22 FaultStalls:0} pages=16 perf=c2e48b8646d5655c data=fe1da89ccbc92b1e",
			faulty:  "now=346960 fired=58994 bank0={ReadBytes:786432 WriteBytes:786432 Requests:12288 Refreshes:37 FaultStalls:609} bank1={ReadBytes:262144 WriteBytes:262144 Requests:4096 Refreshes:27 FaultStalls:217} pages=16 perf=de4b518b54ac9ea3 data=fe1da89ccbc92b1e"},
		{name: "mem-list-get", sc: cell.Scenario{Kind: "mem", SPEs: 4, Chunk: 1024, Volume: 256 * kb, Op: "get", List: true},
			healthy: "now=101224 fired=24656 bank0={ReadBytes:786432 WriteBytes:0 Requests:6144 Refreshes:12 FaultStalls:0} bank1={ReadBytes:262144 WriteBytes:0 Requests:2048 Refreshes:10 FaultStalls:0} pages=8 perf=fc740f54ed3ad6d5 data=0176d511ddffe53f",
			faulty:  "now=157138 fired=24819 bank0={ReadBytes:786432 WriteBytes:0 Requests:6144 Refreshes:19 FaultStalls:305} bank1={ReadBytes:262144 WriteBytes:0 Requests:2048 Refreshes:13 FaultStalls:104} pages=8 perf=a38f1f004f86b068 data=d9220a8b926052b6"},
		{name: "gups-64", sc: cell.Scenario{Kind: "gups", SPEs: 8, Chunk: 64, Volume: 32 * kb, Op: "both"},
			healthy: "now=102052 fired=49454 bank0={ReadBytes:184768 WriteBytes:184768 Requests:5774 Refreshes:13 FaultStalls:0} bank1={ReadBytes:77376 WriteBytes:77376 Requests:2418 Refreshes:13 FaultStalls:0} pages=256 perf=96871030cdfbde39 data=267b817a93348d3e",
			faulty:  "now=156514 fired=50129 bank0={ReadBytes:184768 WriteBytes:184768 Requests:5774 Refreshes:19 FaultStalls:296} bank1={ReadBytes:77376 WriteBytes:77376 Requests:2418 Refreshes:19 FaultStalls:119} pages=256 perf=7c3d7a64ddfbe212 data=592dd01febcddb07"},
		{name: "gups-128", sc: cell.Scenario{Kind: "gups", SPEs: 8, Chunk: 128, Volume: 32 * kb, Op: "both"},
			healthy: "now=51251 fired=25342 bank0={ReadBytes:181248 WriteBytes:181248 Requests:2832 Refreshes:6 FaultStalls:0} bank1={ReadBytes:80896 WriteBytes:80896 Requests:1264 Refreshes:6 FaultStalls:0} pages=256 perf=891d6a22797b73ee data=31bf794b9abd5ec0",
			faulty:  "now=78116 fired=25597 bank0={ReadBytes:181248 WriteBytes:181248 Requests:2832 Refreshes:10 FaultStalls:152} bank1={ReadBytes:80896 WriteBytes:80896 Requests:1264 Refreshes:10 FaultStalls:62} pages=256 perf=761929709c7b842a data=7933e687671216db"},
		{name: "stream-triad", sc: cell.Scenario{Kind: "stream", SPEs: 8, Chunk: 16384, Volume: 128 * kb, Op: "triad"},
			healthy: "now=322662 fired=82270 bank0={ReadBytes:1572864 WriteBytes:786432 Requests:18432 Refreshes:39 FaultStalls:0} bank1={ReadBytes:524288 WriteBytes:262144 Requests:6144 Refreshes:33 FaultStalls:0} pages=16 perf=d93317df53384f23 data=91f54cfbc90a80e3",
			faulty:  "now=495000 fired=82768 bank0={ReadBytes:1572864 WriteBytes:786432 Requests:18432 Refreshes:59 FaultStalls:942} bank1={ReadBytes:524288 WriteBytes:262144 Requests:6144 Refreshes:41 FaultStalls:317} pages=16 perf=c064778dc299a407 data=b543aa38b0889850"},
		{name: "md", sc: cell.Scenario{Kind: "md", SPEs: 8, Chunk: 512, Volume: 128 * kb},
			healthy: "now=108639 fired=32980 bank0={ReadBytes:366080 WriteBytes:371200 Requests:5760 Refreshes:13 FaultStalls:0} bank1={ReadBytes:158208 WriteBytes:153088 Requests:2432 Refreshes:13 FaultStalls:0} pages=475 perf=59938089d50b0f0e data=2a98d1a6b7730e95",
			faulty:  "now=153113 fired=33144 bank0={ReadBytes:366080 WriteBytes:371200 Requests:5760 Refreshes:19 FaultStalls:289} bank1={ReadBytes:158208 WriteBytes:153088 Requests:2432 Refreshes:18 FaultStalls:115} pages=475 perf=eecd0e2852877ac8 data=e4856e376683a5e9"},
		{name: "qcd", sc: cell.Scenario{Kind: "qcd", SPEs: 8, Chunk: 4096, Volume: 128 * kb},
			healthy: "now=254066 fired=60296 bank0={ReadBytes:786432 WriteBytes:786432 Requests:12288 Refreshes:25 FaultStalls:0} bank1={ReadBytes:262144 WriteBytes:262144 Requests:4096 Refreshes:22 FaultStalls:0} pages=16 perf=3db96aa999b45480 data=a444487230031a74",
			faulty:  "now=361135 fired=60677 bank0={ReadBytes:786432 WriteBytes:786432 Requests:12288 Refreshes:38 FaultStalls:574} bank1={ReadBytes:262144 WriteBytes:262144 Requests:4096 Refreshes:26 FaultStalls:206} pages=16 perf=e38875e4c085511b data=123f78f5b2db114c"},
		{name: "ppe-copy",
			healthy: "now=2065251 fired=191283 bank0={ReadBytes:2950144 WriteBytes:1246208 Requests:32784 Refreshes:244 FaultStalls:0} bank1={ReadBytes:1246208 WriteBytes:589824 Requests:14344 Refreshes:242 FaultStalls:0} pages=32 perf=26d9bc0f41b0c6e9 data=7c04ccb4941996a8",
			faulty:  "now=2197613 fired=193116 bank0={ReadBytes:2950144 WriteBytes:1246208 Requests:32784 Refreshes:260 FaultStalls:1657} bank1={ReadBytes:1246208 WriteBytes:589824 Requests:14344 Refreshes:253 FaultStalls:698} pages=32 perf=d75a094a50b5cdc7 data=7c04ccb4941996a8"},
	}
	// Sequential on purpose: each run boots on the buffers the previous
	// one released.
	for _, tc := range cases {
		for _, faulty := range []bool{false, true} {
			name, want := tc.name, tc.healthy
			if faulty {
				name, want = name+"/faults", tc.faulty
			}
			if got := memPathSignature(t, tc, faulty); got != want {
				t.Errorf("%s diverged from golden\n got: %s\nwant: %s", name, got, want)
			}
		}
	}
}
