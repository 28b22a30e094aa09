package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: p90 needs at least 100 samples, p99 at least 1000.
const minBeyond = 10

// errTooFewSamples is returned by tailPercentile when the sample cannot
// support the requested percentile.
var errTooFewSamples = errors.New("too few samples for this percentile")

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile is quantile for reported tail latencies: it refuses a
// percentile with fewer than minBeyond samples above it, so a p90 is never
// read off fewer than 100 requests.
func tailPercentile(xs []float64, q float64) (float64, error) {
	if beyond := float64(len(xs)) * (1 - q); beyond < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples: %w (need %d beyond it)", q*100, len(xs), errTooFewSamples, minBeyond)
	}
	return quantile(xs, q), nil
}

// minWindow is the fewest requests a latency window holds: enough for a
// supported p90.
const minWindow = 110

// windowedPercentile splits xs (in request order) into as many windows of
// at least minWindow consecutive requests as fit, up to 10, takes the
// percentile of each and returns their median and the per-window values.
// A host stall shorter than half the run moves only the windows it
// touches, not the reported value; behaviour present in every window
// still shows.
func windowedPercentile(xs []float64, q float64) (float64, []float64, error) {
	k := min(10, max(1, len(xs)/minWindow))
	per := make([]float64, 0, k)
	for w := 0; w < k; w++ {
		v, err := tailPercentile(xs[w*len(xs)/k:(w+1)*len(xs)/k], q)
		if err != nil {
			return 0, nil, err
		}
		per = append(per, v)
	}
	return median(per), per, nil
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which the steadiness report and the
// benchmark's acceptance rule both use. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reaches); the printed base says which.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
