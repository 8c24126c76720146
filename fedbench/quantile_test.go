package main

import (
	"math"
	"strings"
	"testing"
)

func TestRankIsCeilNearestRank(t *testing.T) {
	for _, c := range []struct{ pm, n, want int }{
		{500, 1, 1},
		{500, 10, 5},
		{500, 11, 6},
		{990, 100, 99},
		{990, 1000, 990},
		{990, 1001, 991}, // ⌈990.99⌉
		{999, 1000, 999},
		{999, 10000, 9990},
		{10, 3, 1}, // never below the first sample
	} {
		if got := rank(c.pm, c.n); got != c.want {
			t.Errorf("rank(p%s, n=%d) = %d, want %d", pmLabel(c.pm), c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 500); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := quantile(xs, 990); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := quantile(nil, 500); !math.IsNaN(got) {
		t.Errorf("p50 of no samples = %v, want NaN", got)
	}
}

func TestSupportedTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{19, 0},     // p50 is rank 10, leaving 9
		{20, 500},   // p50 is rank 10, leaving 10
		{100, 900},  // p95 is rank 95, leaving 5
		{999, 950},  // p99 is rank 990, leaving 9
		{1000, 990}, // p99 is rank 990, leaving 10; p99.9 leaves 1
		{9999, 990}, // p99.9 is rank 9990, leaving 9
		{10000, 999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = p%s, want p%s", c.n, pmLabel(got), pmLabel(c.want))
		}
		if tail := supportedTail(c.n); tail > 0 && c.n-rank(tail, c.n) < 10 {
			t.Errorf("n=%d: p%s leaves fewer than 10 samples beyond it", c.n, pmLabel(tail))
		}
	}
}

func TestDescribePrintsSampleCountAndSupport(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i)
	}
	got := summarize(xs).describe("ms")
	for _, want := range []string{"n=500", "p95=", "p99 is NOT supported"} {
		if !strings.Contains(got, want) {
			t.Errorf("describe() = %q, missing %q", got, want)
		}
	}
}
