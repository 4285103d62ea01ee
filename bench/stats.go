package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metrics"
)

// minBeyond is how many samples must lie above a reported percentile for
// it to count as measured (the choosing-metrics rule); a percentile with
// fewer is still printed, but flagged.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether at
// least minBeyond samples lie strictly beyond its rank.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], n-1-i >= minBeyond
}

// median is the midpoint of xs (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spreadOf formats the least, median and greatest of xs.
func spreadOf(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("min %.4g median %.4g max %.4g", s[0], median(s), s[len(s)-1])
}

// fineHistogram is a metrics.Histogram whose buckets grow by 0.02% from
// 10µs to 1000s, so the program's own latency histograms (which report a
// quantile as its bucket's upper bound) resolve a percentile to 0.02%.
func fineHistogram() *metrics.Histogram {
	var bounds []float64
	for b := 1e-5; b < 1e3; b *= 1.0002 {
		bounds = append(bounds, b)
	}
	return metrics.NewHistogram(bounds)
}

// histPercentile is percentile for a histogram: the q-quantile in
// seconds and whether at least minBeyond observations lie above it.
func histPercentile(h *metrics.Histogram, q float64) (float64, bool) {
	n := h.Count()
	rank := int64(math.Ceil(q * float64(n)))
	return h.Quantile(q), n-rank >= minBeyond
}
