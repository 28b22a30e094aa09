package core

import (
	"cellbe/internal/cell"
	"cellbe/internal/spe"
)

// lsWindow is how much local store the copy kernel cycles through for its
// DMA buffers (the rest is "program + data" in a real SPU binary).
const lsWindow = 128 << 10

// DMAOp selects the transfer direction of a memory-streaming kernel.
type DMAOp int

// Memory streaming operations of Figure 8.
const (
	DMAGet DMAOp = iota
	DMAPut
	DMACopy
)

func (o DMAOp) String() string {
	switch o {
	case DMAGet:
		return "GET"
	case DMAPut:
		return "PUT"
	case DMACopy:
		return "GET+PUT"
	}
	return "?"
}

// memCopyKernel is Figure 8's copy: it GETs volume bytes from src and
// PUTs them to the separate region at dst in chunk-byte elements, waiting
// only once at the end (the paper's "postpone waiting for DMA transfers"
// rule). Each buffer slot chains a fenced GET and PUT on its own tag, so
// the PUT reads the data its GET fetched while slots pipeline freely.
//
// GET and PUT run on the cell kernels (the "mem" scenario), but copy
// keeps this kernel: the scenario copies in place on a single tag, which
// serialises every fenced pair behind the previous one, and the
// memory-path goldens pin that behaviour.
func memCopyKernel(ctx *spe.Context, src, dst, volume int64, chunk int) {
	slots := min(max(lsWindow/chunk, 1), 16) // one tag per slot
	i := 0
	for off := int64(0); off < volume; off += int64(chunk) {
		slot := i % slots
		ctx.GetF(slot*chunk, src+off, chunk, slot)
		ctx.PutF(slot*chunk, dst+off, chunk, slot)
		i++
	}
	ctx.WaitTagMask(^uint32(0))
}

// runScenario installs sc on sys and returns the aggregate bandwidth of
// the run (see runInstalled).
func runScenario(sys *cell.System, sc cell.Scenario) float64 {
	total, err := sc.Install(sys)
	if err != nil {
		panic(err)
	}
	return runInstalled(sys, total)
}

// runInstalled drives a system whose kernels are installed under the
// watchdog and returns the aggregate bandwidth in GB/s: total payload
// bytes over the cycles from simulation start to the last event. A
// deadlocked or conservation-violating experiment panics with the
// structured diagnostic (*sim.DeadlockError or a conservation error)
// instead of a bare string; RunSweep and experiment drivers recover it
// into a per-run error.
func runInstalled(sys *cell.System, total int64) float64 {
	if err := sys.RunChecked(0); err != nil {
		panic(err)
	}
	return sys.GBps(total, sys.Eng.Now())
}
