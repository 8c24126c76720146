package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Percentiles are given in per-mille (500 = p50, 990 = p99) so that ranks
// are computed in exact integer arithmetic.

// tailCandidates are the percentiles a summary may name as its supported
// tail, highest first.
var tailCandidates = []int{999, 990, 950, 900, 750, 500}

// rank is the ceil nearest-rank position (1-based) of per-mille percentile
// pm among n samples: the smallest k with k/n ≥ pm/1000.
func rank(pm, n int) int {
	k := (pm*n + 999) / 1000
	if k < 1 {
		k = 1
	}
	return k
}

// quantile returns the ceil nearest-rank percentile of sorted samples.
func quantile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(pm, len(sorted))-1]
}

// supportedTail is the highest candidate percentile that leaves at least ten
// samples strictly beyond its rank, or 0 when even the median does not.
func supportedTail(n int) int {
	for _, pm := range tailCandidates {
		if n-rank(pm, n) >= 10 {
			return pm
		}
	}
	return 0
}

// summary is the distribution of one timed series. Failed requests enter the
// series as +Inf, so they miss every latency limit.
type summary struct {
	n      int
	sorted []float64
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{n: len(s), sorted: s}
}

func (s summary) q(pm int) float64 { return quantile(s.sorted, pm) }

// mean is the arithmetic mean (NaN for an empty series).
func (s summary) mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range s.sorted {
		t += x
	}
	return t / float64(s.n)
}

// describe renders "n=… p50=… p99=… tail=p99.9" for the human report.
func (s summary) describe(unit string) string {
	tail := supportedTail(s.n)
	out := fmt.Sprintf("n=%d p50=%.4g%s p99=%.4g%s", s.n, s.q(500), unit, s.q(990), unit)
	if tail == 0 {
		return out + " (too few samples for any supported tail)"
	}
	if tail == 990 {
		return out + " (p99 is the highest percentile with ≥10 samples beyond it)"
	}
	out += fmt.Sprintf(" p%s=%.4g%s (highest percentile with ≥10 samples beyond it)", pmLabel(tail), s.q(tail), unit)
	if tail < 990 {
		out += " — p99 is NOT supported by this sample count"
	}
	return out
}

func pmLabel(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprint(pm / 10)
	}
	return fmt.Sprintf("%d.%d", pm/10, pm%10)
}

// windowRates splits [start, start+elapsed) into whole windows of length
// win and returns each window's completions per second (one figure for the
// whole span when it is shorter than a window).
func windowRates(done []time.Time, start time.Time, elapsed, win time.Duration) []float64 {
	n := int(elapsed / win)
	if n < 1 {
		return []float64{float64(len(done)) / elapsed.Seconds()}
	}
	counts := make([]float64, n)
	for _, t := range done {
		if k := int(t.Sub(start) / win); k >= 0 && k < n {
			counts[k]++
		}
	}
	for k := range counts {
		counts[k] /= win.Seconds()
	}
	return counts
}

// median is the ceil nearest-rank median (NaN for no values).
func median(xs []float64) float64 { return summarize(xs).q(500) }
