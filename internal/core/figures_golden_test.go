package core

// SPE DMA figure goldens. The conformance suite checks the paper's
// claims as ranges and orderings, which a kernel change can shift
// without failing. This golden pins the exact raw per-run samples of
// every SPE DMA figure (Figures 8, 10, 12, 13, 15, 16, §4.2.3 and the
// cross-chip extension) on a small grid, so any change to the traffic
// those figures run on shows up here as a moved number.
//
// Regenerate after an intended model change with
//
//	go test ./internal/core -run TestSPEFigureGolden -update

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current simulator")

const figureGoldenPath = "testdata/spe_figures.golden"

// goldenParams is the small grid the golden is measured on: two layouts,
// 64 KB per SPE, three element sizes, three sync intervals and two SPE
// counts.
func goldenParams() Params {
	p := DefaultParams()
	p.Runs = 2
	p.BytesPerSPE = 64 << 10
	p.Chunks = []int{128, 4096, 16384}
	p.Syncs = []int{1, 4, 0}
	p.SPESweep = []int{2, 8}
	return p
}

// figureGoldenCases lists the experiments the golden covers. The list
// variant of the put figure is not registered but is reachable through
// SPEMemory, so it is pinned too.
var figureGoldenCases = []struct {
	name string
	run  func(Params) (*Result, error)
}{
	{"spe-mem-get", func(p Params) (*Result, error) { return SPEMemory(p, DMAGet, false) }},
	{"spe-mem-put", func(p Params) (*Result, error) { return SPEMemory(p, DMAPut, false) }},
	{"spe-mem-copy", func(p Params) (*Result, error) { return SPEMemory(p, DMACopy, false) }},
	{"spe-mem-get-list", func(p Params) (*Result, error) { return SPEMemory(p, DMAGet, true) }},
	{"spe-mem-put-list", func(p Params) (*Result, error) { return SPEMemory(p, DMAPut, true) }},
	{"spe-pair-sync", SPEPairSync},
	{"spe-pair-distance", SPEPairDistance},
	{"spe-couples", func(p Params) (*Result, error) { return SPECouples(p, false) }},
	{"spe-couples-list", func(p Params) (*Result, error) { return SPECouples(p, true) }},
	{"spe-cycle", func(p Params) (*Result, error) { return SPECycle(p, false) }},
	{"spe-cycle-list", func(p Params) (*Result, error) { return SPECycle(p, true) }},
	{"cross-chip", CrossChip},
}

// figureSamples renders every raw sample of r, one point per line, with
// the shortest decimal that round-trips the float64 exactly.
func figureSamples(name string, r *Result) string {
	var b strings.Builder
	for _, c := range r.Curves {
		for _, pt := range c.Points {
			fmt.Fprintf(&b, "%s | %s | %d:", name, c.Label, pt.X)
			for _, v := range pt.Samples {
				b.WriteString(" " + strconv.FormatFloat(v, 'g', -1, 64))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func TestSPEFigureGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve figures")
	}
	p := goldenParams()
	var got strings.Builder
	for _, tc := range figureGoldenCases {
		r, err := tc.run(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got.WriteString(figureSamples(tc.name, r))
	}
	if *update {
		if err := os.WriteFile(figureGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(figureGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
