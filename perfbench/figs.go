package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"cellbe/internal/core"
)

// figsWorkload runs registry experiments (Experiment.Run) in a closed
// loop with one client. It is the only workload that reaches the PPE and
// the paper kernels in core.
type figsWorkload struct {
	reqs   []figRequest
	warmup []figRequest
	tal    *tally
	// outputs maps "experiment|first seed" to the experiment's curves,
	// printed exactly; the same request must always give the same curves.
	outputs map[string]string
	byExp   map[string][]float64 // timed latencies in seconds, per experiment
}

func newFigsWorkload(reqs, warmup []figRequest) *figsWorkload {
	return &figsWorkload{reqs: reqs, warmup: warmup, tal: &tally{},
		outputs: make(map[string]string), byExp: make(map[string][]float64)}
}

func (w *figsWorkload) setup(clk *hostClock) error {
	for _, r := range w.warmup {
		clk.calibrate()
		if _, _, err := runFig(r); err != nil {
			return fmt.Errorf("warm-up %s: %w", r.Exp, err)
		}
	}
	return nil
}

func (w *figsWorkload) close() {}

func (w *figsWorkload) run(tr *spans) phase {
	p := phase{lat: make([]time.Duration, 0, len(w.reqs))}
	w.byExp = make(map[string][]float64)
	clk := startClock()
	for _, r := range w.reqs {
		clk.calibrate()
		w.tal.attempt()
		sp := tr.begin("core.exp", r.Exp, -1)
		s := time.Now()
		out, n, err := runFig(r)
		d := time.Since(s)
		tr.end(sp)
		if err == nil {
			err = w.record(r, out)
		}
		if err != nil {
			w.tal.fail(err)
			continue
		}
		p.points += n
		p.lat = append(p.lat, d)
		p.done = append(p.done, completion{at: clk.now(), points: n})
		w.byExp[r.Exp] = append(w.byExp[r.Exp], d.Seconds())
	}
	p.wall = clk.now()
	p.slowdown = clk.slowdown()
	return p
}

func figKey(r figRequest) string { return fmt.Sprintf("%s|%d", r.Exp, r.Params.FirstSeed) }

func (w *figsWorkload) record(r figRequest, out string) error {
	k := figKey(r)
	if old, ok := w.outputs[k]; ok && old != out {
		return fmt.Errorf("%w: %s gave two different results", errMismatch, k)
	}
	w.outputs[k] = out
	return nil
}

// runFig runs one experiment and returns its curves printed exactly, and
// the points delivered: curve points times layout runs.
func runFig(r figRequest) (string, int, error) {
	e, err := core.Lookup(r.Exp)
	if err != nil {
		return "", 0, err
	}
	res, err := e.Run(r.Params)
	if err != nil {
		return "", 0, fmt.Errorf("%s: %w", r.Exp, err)
	}
	n := 0
	for _, c := range res.Curves {
		n += len(c.Points) * r.Params.Runs
	}
	if n == 0 {
		return "", 0, fmt.Errorf("%s: no curve points", r.Exp)
	}
	return fmt.Sprintf("%v", res.Curves), n, nil
}

// verify re-runs a seeded sample of the timed requests and requires the
// same curves: the simulated statistics are deterministic.
func (w *figsWorkload) failures() *tally { return w.tal }

func (w *figsWorkload) verify(seed int64) []string {
	keys := make([]string, 0, len(w.outputs))
	for k := range w.outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\n%s\n", k, w.outputs[k])
	}
	rng := rand.New(rand.NewSource(seed))
	sample := rng.Perm(len(w.reqs))[:min(3, len(w.reqs))]
	match := 0
	for _, i := range sample {
		r := w.reqs[i]
		out, _, err := runFig(r)
		if err == nil && out != w.outputs[figKey(r)] {
			err = fmt.Errorf("%w: re-running %s gave different curves", errMismatch, figKey(r))
		}
		if err != nil {
			w.tal.fail(err)
			continue
		}
		match++
	}
	return []string{
		fmt.Sprintf("digest %s over %d distinct experiment runs", hex.EncodeToString(h.Sum(nil))[:16], len(keys)),
		fmt.Sprintf("re-run: %d of %d sampled experiment runs match", match, len(sample)),
	}
}
