package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs the workload n times as child processes, on seeds
// o.seed .. o.seed+n-1, and prints each metric's median, quartiles and
// spread (interquartile distance over median) against its bound in
// BENCHMARK.json, read from the working directory.
func steadiness(o options, n int) error {
	if n < 2 {
		return fmt.Errorf("-steady needs at least 2 runs")
	}
	bounds := make(map[string]float64)
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: no bounds (%v)\n", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		args := []string{"-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace),
			"-tmp", o.tmp}
		out, err := exec.Command(self, args...).Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("run %d (seed %d): incorrect (%d of %d failed)", i, seed, res.Failed, res.Attempted)
		}
		fmt.Printf("run %d seed %d:", i, seed)
		for _, name := range sortedKeys(res.Metrics) {
			m := res.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			fmt.Printf(" %s=%.5g", name, m.Value)
		}
		fmt.Println()
	}
	fmt.Printf("%-34s %-6s %12s %12s %12s %8s %8s  %s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, name := range sortedKeys(values) {
		q1, q2, q3 := quartiles(values[name])
		spread := ratio(q3-q1, q2)
		verdict, bound := "no bound", "-"
		if b, ok := bounds[name]; ok {
			bound = fmt.Sprintf("%.3f", b)
			switch {
			case spread <= b/3:
				verdict = "steady (< bound/3)"
			case spread <= b:
				verdict = "within bound"
			default:
				verdict = "TOO NOISY"
			}
		}
		fmt.Printf("%-34s %-6s %12.5g %12.5g %12.5g %8.4f %8s  %s\n", name, units[name], q1, q2, q3, spread, bound, verdict)
	}
	return nil
}

// lastResult parses the JSON object on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
