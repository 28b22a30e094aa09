// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator, checks every output, and prints each
// end-to-end metric (or, with -trace 1, each per-layer metric) by name
// with its unit and sample count. The last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root with run.sh, which builds
// this program first:
//
//	bash perfbench/run.sh --workload sweep-eib --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload sweep-eib --seed 1 --seconds 10 --steady 10
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many fresh processes a run starts to time its set-up;
// setup_s is the median.
const setupReps = 5

// readyLine starts what a -setup-only process prints once it could send
// its first timed request, followed by the seconds its calibrations took
// and the host's slowdown during the set-up.
const readyLine = "ready"

// rateWindows is how many windows of consecutive requests points_per_s
// takes its median over.
const rateWindows = 10

// workload is one named traffic mix.
type workload interface {
	// setup builds fresh state and runs the untimed warm-up, calibrating
	// clk before each warm-up request.
	setup(clk *hostClock) error
	// run sends the fixed request sequence and times it.
	run(tr *spans) phase
	// verify checks the delivered outputs once the timed phase is over.
	verify(seed int64) []string
	// failures counts the requests attempted and failed so far.
	failures() *tally
	close()
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	tmp      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: picks layout seeds and request order")
	flag.IntVar(&o.seconds, "seconds", 10, "sizes the fixed request count so a run lasts about this long")
	flag.IntVar(&o.trace, "trace", 0, "1 prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "scratch directory for journals")
	steady := flag.Int("steady", 0, "run the workload this many times (seeds seed, seed+1, ...) and report each metric's spread")
	record := flag.String("record-grants", "", "record one cycle point's EIB grant stream into this file and exit")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, print \""+readyLine+"\" and exit (how setup_s is timed)")
	flag.Parse()

	if *record != "" {
		if err := recordGrants(*record); err != nil {
			fatal(err)
		}
		return
	}
	if !knownWorkload(o.workload) {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", ")))
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fatal(fmt.Errorf("-seconds must be >= 1 and -trace 0 or 1"))
	}
	if *setupOnly {
		if err := setupOnlyRun(o); err != nil {
			fatal(err)
		}
		return
	}
	if *steady > 0 {
		if err := steadiness(o, *steady); err != nil {
			fatal(err)
		}
		return
	}
	res, err := execute(o)
	if err != nil {
		fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics and prints each, with its unit and base, as it
// is added.
type report struct {
	metrics map[string]metric
}

func (r *report) add(name, unit string, v float64, base string, args ...any) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("metric %-34s %14.6g %-6s %s\n", name, v, unit, fmt.Sprintf(base, args...))
}

// counts sizes a workload's request sequence from --seconds, never below
// the 110 requests a supported p90 needs, in whole rounds of its mix.
func counts(o options) int {
	rate := map[string]float64{
		"sweep-eib":  eibJobsPerSecond,
		"sweep-mem":  memJobsPerSecond,
		"paper-figs": figRoundsPerSecond * float64(len(figExperiments)),
	}[o.workload]
	n := max(110, int(math.Ceil(rate*float64(o.seconds))))
	r := roundLen(o.workload)
	return (n + r - 1) / r * r
}

// build makes the workload's state for one run. The warm-up sequence
// uses a seed of its own, so the timed requests are never already cached.
func build(o options) (workload, error) {
	n := counts(o)
	switch o.workload {
	case "sweep-eib":
		warm := eibJobs(o.seed^0x5eed, len(eibTemplates))
		return newSweepWorkload(eibJobs(o.seed, n), warm), nil
	case "sweep-mem":
		warm := memJobs(o.seed^0x5eed, len(memTemplates))
		return newSweepWorkload(memJobs(o.seed, n), warm), nil
	case "paper-figs":
		rounds := (n + len(figExperiments) - 1) / len(figExperiments)
		return newFigsWorkload(figRequests(o.seed, rounds), figRequests(o.seed^0x5eed, 1)), nil
	}
	return nil, fmt.Errorf("unknown workload %q", o.workload)
}

// execute runs one measurement: the set-up timings, this process's own
// set-up, the timed phase, the output checks and, when tracing, the
// per-layer probes.
func execute(o options) (*result, error) {
	setups, err := timeSetups(o)
	if err != nil {
		return nil, err
	}
	// The measured phases run on one P (see workers). With a second P,
	// the coroutine handoffs of the simulated kernels also kept waking
	// the idle one, which made runs slower and more host-dependent.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w, err := build(o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if err := w.setup(startClock()); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	printMeta(o)
	ph := w.run(nil)
	for _, line := range w.verify(o.seed) {
		fmt.Println("check", line)
	}
	tal := w.failures()
	rep := &report{metrics: make(map[string]metric)}
	if o.trace == 0 {
		endToEnd(rep, o, w, ph, setups)
	} else {
		if err := perLayer(rep, o, w, ph); err != nil {
			return nil, err
		}
	}
	fmt.Println("check", tal.String())
	failed := tal.failed()
	return &result{Correct: failed == 0, Attempted: tal.attempted, Failed: failed, Metrics: rep.metrics}, nil
}

// setupOnlyRun is a -setup-only process: it builds the workload and runs
// its set-up exactly as execute does, then says it is ready.
func setupOnlyRun(o options) error {
	clk := startClock()
	runtime.GOMAXPROCS(1)
	w, err := build(o)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setup(clk); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	fmt.Println(readyLine, clk.paused.Seconds(), clk.slowdown())
	return nil
}

// timeSetups starts setupReps fresh -setup-only processes of this program,
// one after another, and times each from its start to its ready line:
// process start, runtime and package init, building the request sequence
// and the warm-up, up to where the first timed request would go. Closing
// the workload afterwards is not timed, nor are the process's
// calibrations. The times are returned at nominal host speed, as measured
// by those calibrations.
func timeSetups(o options) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-setup-only", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-tmp", o.tmp}
	var out []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		line, rerr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(t0)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		var paused, slowdown float64
		if _, err := fmt.Sscanf(line, readyLine+" %g %g", &paused, &slowdown); err != nil || rerr != nil || slowdown <= 0 {
			return nil, errors.Join(fmt.Errorf("set-up process printed %q, want %q, calibration seconds and slowdown", line, readyLine), err, rerr)
		}
		out = append(out, (d.Seconds()-paused)/slowdown)
	}
	return out, nil
}

// peakRSSMB reads a process's peak resident set size from /proc.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func endToEnd(rep *report, o options, w workload, ph phase, setups []float64) {
	fmt.Printf("info reference loop, run before each request: median %.1f us, nominal %.1f us; time metrics below are host time / %.4f\n",
		us(refNominal)*ph.slowdown, us(refNominal), ph.slowdown)
	lat := msAll(ph.lat)
	for i := range lat {
		lat[i] /= ph.slowdown
	}
	rates := ph.windowRates(roundLen(o.workload), rateWindows)
	for i := range rates {
		rates[i] *= ph.slowdown
	}
	rep.add("points_per_s", "1/s", median(rates), "(median of %d windows: %s; %d points in %.3f s of host time overall)",
		len(rates), fmtFloats(rates), ph.points, ph.wall.Seconds())
	for _, q := range []struct {
		name string
		q    float64
	}{{"req_ms_p50", 0.50}, {"req_ms_p90", 0.90}} {
		v, per, err := windowedPercentile(lat, q.q)
		if err != nil {
			fmt.Printf("metric %s not reported: %v\n", q.name, err)
			continue
		}
		rep.add(q.name, "ms", v, "(median of %d windows of >= %d of the %d requests: %s)",
			len(per), minWindow, len(lat), fmtFloats(per))
	}
	rep.add("setup_s", "s", median(setups), "(median of %d fresh processes, start to ready, at nominal host speed: %s)", len(setups), fmtFloats(setups))
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	rep.add("peak_rss_mb", "MB", rss, "(VmHWM of this process)")
	tal := w.failures()
	fmt.Printf("info fail_ratio %.6g (%d failed of %d attempted)\n", tal.ratio(), tal.failed(), tal.attempted)
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}

// printMeta attaches the machine and run metadata to the result.
func printMeta(o options) {
	meta := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"requests":   counts(o),
		"workers":    workers,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
	b, _ := json.Marshal(meta)
	fmt.Println("meta", string(b))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
