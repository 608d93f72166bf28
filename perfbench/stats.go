package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks (the "exclusive of nothing" method
// numpy calls "linear"). xs need not be sorted; it is not modified.
// Returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if s[lo] == s[hi] { // also keeps +Inf entries (failed requests) from turning into NaN
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// chunkRate cuts the per-operation times ts into k contiguous chunks of
// equal count (the last takes the remainder) and returns the median over
// chunks of items*ops/chunk time: a throughput that one host stall, which
// slows a single chunk, does not move. k is clamped to [1, len(ts)]; NaN
// for no times.
func chunkRate(ts []time.Duration, items float64, k int) float64 {
	if len(ts) == 0 {
		return math.NaN()
	}
	k = max(1, min(k, len(ts)))
	per := len(ts) / k
	var rates []float64
	for c := 0; c < k; c++ {
		lo, hi := c*per, (c+1)*per
		if c == k-1 {
			hi = len(ts)
		}
		var sum time.Duration
		for _, t := range ts[lo:hi] {
			sum += t
		}
		rates = append(rates, items*float64(hi-lo)/sum.Seconds())
	}
	return median(rates)
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean is the arithmetic mean (NaN for an empty slice).
func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// spreadNote describes repeated measurements the way their run-to-run
// spread is judged: median, and interquartile distance as a share of it.
func spreadNote(xs []float64) string {
	spread, err := relSpread(xs)
	if err != nil {
		return fmt.Sprintf("median %.4g (n=%d)", median(xs), len(xs))
	}
	return fmt.Sprintf("median %.4g, IQR %.1f%% of median (n=%d)", median(xs), 100*spread, len(xs))
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does with its default "exclusive" method,
// which is how the run-to-run spread of each end-to-end metric is judged:
// the 1-based position (len+1)*k/4 is clamped to [1, len-1] and the value
// interpolated (or, after clamping, extrapolated) from its two neighbours.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", len(xs))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), nil
}

// relSpread is the interquartile distance of xs as a share of its median.
func relSpread(xs []float64) (float64, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	m := median(xs)
	if m == 0 {
		return 0, fmt.Errorf("median is 0")
	}
	return (q3 - q1) / math.Abs(m), nil
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// geomean is the geometric mean of positive values (NaN if any is <= 0).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// relDiff is |a-b| relative to |b|, with exact zero for identical values.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(b), 1e-300)
}

var (
	metricNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric or workload name: a letter
// or digit first, then at most 63 more letters, digits, '_', '.' or '-'.
func validName(s string) bool { return metricNameRe.MatchString(s) }

// validUnit reports whether s is a legal unit string.
func validUnit(s string) bool { return unitRe.MatchString(s) }
