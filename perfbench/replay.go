package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	_ "embed"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"cellbe/internal/cell"
	"cellbe/internal/eib"
	"cellbe/internal/sim"
	"cellbe/internal/trace"
)

// The recorded grant stream: every EIB data transfer of one cycle point
// (8 SPEs, 4 KB chunks, 128 KB per SPE, layout seed 1), with the cycle
// it was issued, its earliest eligible start and the grant the model
// gave it. Regenerate with -record-grants testdata/cycle_grants.csv.gz
// from this directory.
//
//go:embed testdata/cycle_grants.csv.gz
var grantsFile []byte

// grantPoint is the scenario the stream was recorded from.
var grantPoint = cell.Scenario{Kind: "cycle", SPEs: 8, Chunk: 4096, Volume: 128 << 10, Op: "get"}

const grantSeed = 1

// grant is one recorded EIB transfer.
type grant struct {
	issued, earliest, start, end sim.Time
	src, dst                     eib.RampID
	bytes, ring                  int
}

var grantHeader = []string{"issued", "src", "dst", "bytes", "earliest", "start", "end", "ring"}

// recordGrants simulates grantPoint once with the EIB's transfer record
// and the tracer's transfer events on, joins the two (the record has the
// issue cycle and the grant, the trace event has the wait that gives the
// earliest start) and writes the stream to path.
func recordGrants(path string) error {
	cfg := cell.DefaultConfig()
	cfg.Layout = cell.RandomLayout(grantSeed)
	cfg.EIB.TraceCapacity = 1 << 16
	sys := cell.New(cfg)
	tr := trace.New(1<<16, trace.Mask(1)<<trace.KindTransfer)
	sys.SetTracer(tr)
	if _, err := grantPoint.Install(sys); err != nil {
		return err
	}
	if err := sys.RunChecked(0); err != nil {
		return err
	}
	recs, evs := sys.Bus.Trace(), tr.Events()
	if len(recs) != len(evs) || int64(len(recs)) != sys.Bus.Stats().Transfers || tr.Dropped() > 0 {
		return fmt.Errorf("recorders disagree: %d records, %d trace events, %d transfers", len(recs), len(evs), sys.Bus.Stats().Transfers)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	cw := csv.NewWriter(zw)
	cw.Write(grantHeader)
	for i, r := range recs {
		ev := evs[i]
		if ev.Start != r.Start || ev.C != int64(r.Dst) {
			return fmt.Errorf("transfer %d: record and trace event disagree", i)
		}
		earliest := r.Start - sim.Time(ev.D)
		cw.Write([]string{
			strconv.FormatInt(int64(r.Issued), 10), strconv.Itoa(int(r.Src)), strconv.Itoa(int(r.Dst)),
			strconv.Itoa(r.Bytes), strconv.FormatInt(int64(earliest), 10),
			strconv.FormatInt(int64(r.Start), 10), strconv.FormatInt(int64(r.End), 10), strconv.Itoa(r.Ring),
		})
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// loadGrants parses the embedded stream.
func loadGrants() ([]grant, error) {
	zr, err := gzip.NewReader(bytes.NewReader(grantsFile))
	if err != nil {
		return nil, fmt.Errorf("grant stream: %w", err)
	}
	cr := csv.NewReader(bufio.NewReader(zr))
	if _, err := cr.Read(); err != nil {
		return nil, fmt.Errorf("grant stream header: %w", err)
	}
	var gs []grant
	for {
		row, err := cr.Read()
		if err == io.EOF {
			return gs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("grant stream: %w", err)
		}
		var v [8]int64
		for i, f := range row {
			if v[i], err = strconv.ParseInt(f, 10, 64); err != nil {
				return nil, fmt.Errorf("grant stream row %d: %w", len(gs), err)
			}
		}
		gs = append(gs, grant{issued: sim.Time(v[0]), src: eib.RampID(v[1]), dst: eib.RampID(v[2]),
			bytes: int(v[3]), earliest: sim.Time(v[4]), start: sim.Time(v[5]), end: sim.Time(v[6]), ring: int(v[7])})
	}
}

// replayer feeds a recorded stream into a fresh EIB through TransferCB,
// each grant at its recorded issue cycle and in recorded order, and
// collects the completion cycles.
type replayer struct {
	gs   []grant
	eng  *sim.Engine
	bus  *eib.EIB
	next int
	ends []sim.Time
	cbs  []endCB
}

type endCB struct {
	r *replayer
	i int
}

func (c *endCB) Call(at sim.Time) { c.r.ends[c.i] = at }

// Call issues every grant recorded at this cycle, then wakes itself at
// the next recorded issue cycle.
func (r *replayer) Call(at sim.Time) {
	for r.next < len(r.gs) && r.gs[r.next].issued == at {
		g := &r.gs[r.next]
		r.bus.TransferCB(g.src, g.dst, g.bytes, g.earliest, &r.cbs[r.next])
		r.next++
	}
	if r.next < len(r.gs) {
		t := r.gs[r.next].issued
		r.eng.AtCallee(t, r, t)
	}
}

func newReplayer(gs []grant) *replayer {
	r := &replayer{gs: gs, ends: make([]sim.Time, len(gs)), cbs: make([]endCB, len(gs))}
	for i := range r.cbs {
		r.cbs[i] = endCB{r: r, i: i}
	}
	return r
}

// replay runs the stream once on a fresh engine and EIB, with tr (when
// non-nil) recording the grants, and returns the wall time of the run.
func (r *replayer) replay(tr *trace.Tracer) time.Duration {
	r.eng = sim.NewEngine()
	r.bus = eib.New(r.eng, cell.DefaultConfig().EIB)
	r.bus.SetTracer(tr)
	r.next = 0
	t0 := time.Now()
	r.eng.AtCallee(r.gs[0].issued, r, r.gs[0].issued)
	r.eng.Run()
	return time.Since(t0)
}

// replayEIB checks the replay against the recording, grant by grant
// (start cycle, ring and completion cycle), then times untraced replays.
// It returns the matching share and the median host ns per grant.
func replayEIB(reps int) (match float64, nsPerGrant float64, n int, err error) {
	gs, err := loadGrants()
	if err != nil {
		return 0, 0, 0, err
	}
	if len(gs) == 0 {
		return 0, 0, 0, fmt.Errorf("grant stream is empty")
	}
	r := newReplayer(gs)
	tr := trace.New(len(gs), trace.Mask(1)<<trace.KindTransfer)
	r.replay(tr)
	evs := tr.Events()
	ok := 0
	for i, g := range gs {
		if i < len(evs) && evs[i].Start == g.start && evs[i].B == int64(g.ring) && r.ends[i] == g.end {
			ok++
		}
	}
	var per []float64
	for k := 0; k < reps; k++ {
		d := r.replay(nil)
		per = append(per, float64(d.Nanoseconds())/float64(len(gs)))
	}
	return float64(ok) / float64(len(gs)), median(per), len(gs), nil
}
