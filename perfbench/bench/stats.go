// Package bench holds the benchmark's measurement primitives and its
// output checks: order statistics, heap allocation accounting,
// in-memory span tracing, the host fingerprint, and the reference
// computations each workload's outputs are checked against. It has no
// goroutines of its own; the workload runner in the parent directory
// owns every server and connection.
package bench

import (
	"math"
	"sort"
)

// Median returns the median of xs (the mean of the two middle values
// for an even count), NaN for an empty slice. xs is not modified.
func Median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the first quartile, the median and the third
// quartile of xs by the same rule as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), which is how
// run-to-run spread is judged. It needs at least two values.
func Quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return 0, 0, 0, false
	}
	const n = 4
	m := ld + 1
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2], true
}

// Spread is the interquartile distance of xs as a share of its median,
// the run-to-run spread statistic a metric's bound is compared with.
func Spread(xs []float64) float64 {
	q1, _, q3, ok := Quartiles(xs)
	med := Median(xs)
	if !ok || med == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// Rate is the throughput of a closed loop: the completed operations
// over the time spent inside them. lat holds each completed operation's
// duration in seconds. Every operation's time counts, so a slow path
// that hits a few operations lowers the rate even when it leaves the
// median latency unchanged.
func Rate(lat []float64) float64 {
	var busy float64
	for _, d := range lat {
		busy += d
	}
	return float64(len(lat)) / busy
}

// tailLadder is the fixed set of percentiles a tail is reported at. A
// fixed ladder keeps the reported percentile the same between runs whose
// operation counts differ only slightly.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile; with fewer the "tail" would be one or two outliers.
const minBeyond = 10

// Tail returns the highest percentile of the ladder that has at least
// ten samples beyond it, with its value by the nearest-rank rule. ok is
// false when no percentile qualifies (fewer than 40 samples).
func Tail(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailLadder {
		// Nearest rank ceil(p/100·n), in integer tenths of a percent so
		// that 99.9% of 10000 is rank 9990, not 9991.
		tenths := int(math.Round(p * 10))
		k := (tenths*n + 999) / 1000
		if k >= 1 && n-k >= minBeyond {
			return p, s[k-1], true
		}
	}
	return 0, 0, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
