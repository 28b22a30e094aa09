package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// spans records host-time spans around the benchmark's calls into each
// layer: layer, name, start, end and the span that caused it. A nil
// *spans records nothing, so untraced runs pay one nil check per call.
// Spans stay in memory and are summarized when the run ends.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

type span struct {
	layer, name string
	start, end  time.Duration
	parent      int // index of the causing span, -1 for a root
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (s *spans) begin(layer, name string, parent int) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{layer: layer, name: name, start: now, end: -1, parent: parent})
	return len(s.list) - 1
}

func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	now := time.Since(s.t0)
	s.mu.Lock()
	s.list[id].end = now
	s.mu.Unlock()
}

// layerTime is the total and self time of one call into a layer (layer
// and span name) over a run. Self time is a span's duration minus the
// part of it its children cover.
type layerTime struct {
	layer       string
	count       int
	total, self time.Duration
}

func (s *spans) layers() []layerTime {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	children := make(map[int][]span)
	for _, sp := range s.list {
		if sp.parent >= 0 && sp.end >= 0 {
			children[sp.parent] = append(children[sp.parent], sp)
		}
	}
	by := make(map[string]*layerTime)
	for i, sp := range s.list {
		if sp.end < 0 {
			continue
		}
		key := sp.layer + " " + sp.name
		lt := by[key]
		if lt == nil {
			lt = &layerTime{layer: key}
			by[key] = lt
		}
		d := sp.end - sp.start
		lt.count++
		lt.total += d
		lt.self += d - covered(children[i], sp.start, sp.end)
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of kids' intervals inside [lo, hi].
// Children may overlap in time.
func covered(kids []span, lo, hi time.Duration) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var sum time.Duration
	cur := lo
	for _, k := range kids {
		s, e := max(k.start, cur), min(k.end, hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

func (s *spans) print(w io.Writer) {
	fmt.Fprintf(w, "trace: %-30s %8s %12s %12s\n", "layer call", "spans", "total_ms", "self_ms")
	for _, lt := range s.layers() {
		fmt.Fprintf(w, "trace: %-30s %8d %12.1f %12.1f\n", lt.layer, lt.count, ms(lt.total), ms(lt.self))
	}
}
