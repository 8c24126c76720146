package obs

import (
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramPrometheusConformance renders a histogram while other
// goroutines are observing into it and checks the exposition invariants a
// Prometheus scraper assumes: cumulative le buckets are monotone
// non-decreasing, the +Inf bucket equals _count, and the whole block is
// internally consistent (one snapshot, not piecewise reads).
func TestHistogramPrometheusConformance(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					h.ObserveNs(rng.Int63n(1 << 30))
				}
			}
		}(int64(w))
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		WriteHistogram(&buf, "x", "", &h)
		checkHistogramBlock(t, buf.String())
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()

	// And once quiescent: the rendered totals must match the accessors.
	var buf bytes.Buffer
	WriteHistogram(&buf, "x", "", &h)
	inf, count, _ := checkHistogramBlock(t, buf.String())
	if inf != h.Count() || count != h.Count() {
		t.Fatalf("quiescent +Inf=%d _count=%d, want %d", inf, count, h.Count())
	}
}

// checkHistogramBlock parses one WriteHistogram block and enforces the
// exposition invariants, returning (+Inf bucket, _count, _sum line present).
func checkHistogramBlock(t *testing.T, page string) (inf, count int64, sum string) {
	t.Helper()
	var prev int64 = -1
	inf, count = -1, -1
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed line %q", line)
		}
		switch {
		case strings.Contains(name, `le="+Inf"`):
			inf, _ = strconv.ParseInt(val, 10, 64)
			if inf < prev {
				t.Errorf("+Inf bucket %d < previous cumulative %d", inf, prev)
			}
		case strings.Contains(name, "_bucket{"):
			cum, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", val, err)
			}
			if cum < prev {
				t.Errorf("cumulative buckets not monotone: %d after %d in\n%s", cum, prev, page)
			}
			prev = cum
		case strings.HasSuffix(name, "_sum"):
			sum = val
		case strings.HasSuffix(name, "_count"):
			count, _ = strconv.ParseInt(val, 10, 64)
		}
	}
	if inf < 0 || count < 0 || sum == "" {
		t.Fatalf("block missing +Inf/_count/_sum:\n%s", page)
	}
	if inf != count {
		t.Errorf("+Inf bucket %d != _count %d (piecewise read?):\n%s", inf, count, page)
	}
	if count > 0 && sum == "0" {
		// sum of positive observations with count>0 can be 0 only if every
		// observation was 0; the random workload makes that impossible.
		t.Errorf("_count=%d but _sum=0", count)
	}
	return inf, count, sum
}

func TestHistogramAddHistogramExact(t *testing.T) {
	var a, b, merged Histogram
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		v := rng.Int63n(1 << 40)
		a.ObserveNs(v)
		merged.ObserveNs(v)
	}
	for i := 0; i < 300; i++ {
		v := rng.Int63n(1 << 20)
		b.ObserveNs(v)
		merged.ObserveNs(v)
	}
	var sum Histogram
	sum.AddHistogram(&a)
	sum.AddHistogram(&b)
	got, want := sum.Snapshot(), merged.Snapshot()
	if got.Count != want.Count || got.SumNs != want.SumNs || got.MaxNs != want.MaxNs {
		t.Fatalf("merge totals = %+v, want %+v", got, want)
	}
	if len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("merge has %d buckets, want %d", len(got.Buckets), len(want.Buckets))
	}
	for i := range got.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, got.Buckets[i], want.Buckets[i])
		}
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		if sum.Quantile(q) != merged.Quantile(q) {
			t.Fatalf("q%.3f = %d, want %d", q, sum.Quantile(q), merged.Quantile(q))
		}
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge = %v", g.Value())
	}
	g.Set(3.5)
	g.Add(-1.25)
	if g.Value() != 2.25 {
		t.Fatalf("gauge = %v, want 2.25", g.Value())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if g.Value() != 8002.25 {
		t.Fatalf("concurrent adds = %v, want 8002.25", g.Value())
	}
	var nilG *Gauge = nil
	_ = nilG // Gauge has no nil-safe contract; zero value is the API.
}

func TestWindowRolls(t *testing.T) {
	clock := time.Unix(0, 0)
	now := func() time.Time { return clock }
	w := newWindowAt(10*time.Second, 10, now)
	if w.Span() != 10*time.Second {
		t.Fatalf("span = %v", w.Span())
	}
	w.Add(3)
	clock = clock.Add(2 * time.Second)
	w.Add(4)
	if got := w.Sum(); got != 7 {
		t.Fatalf("sum = %d, want 7", got)
	}
	// Advance so the first bucket ages out but the second survives.
	clock = time.Unix(0, 0).Add(10 * time.Second)
	if got := w.Sum(); got != 4 {
		t.Fatalf("after first expiry sum = %d, want 4", got)
	}
	// Far future: everything expired, including wrapped reuse of buckets.
	clock = time.Unix(0, 0).Add(time.Hour)
	if got := w.Sum(); got != 0 {
		t.Fatalf("after full expiry sum = %d, want 0", got)
	}
	// Nil window is inert.
	var nilW *Window
	nilW.Add(1)
	if nilW.Sum() != 0 || nilW.Span() != 0 {
		t.Fatal("nil window not inert")
	}
}

func TestRegistryRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta_total", Label{"shard", "1"}).Add(2)
	r.Counter("zeta_total", Label{"shard", "0"}).Add(5)
	r.Gauge("alpha").Set(1.5)
	r.GaugeFunc("mid_rate", func() float64 { return 0.25 }, Label{"window", "60s"})
	r.Histogram("lat_seconds").ObserveNs(3)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	want := `# TYPE alpha gauge
alpha 1.5
# TYPE lat_seconds histogram
lat_seconds_bucket{le="3e-09"} 1
lat_seconds_bucket{le="+Inf"} 1
lat_seconds_sum 3e-09
lat_seconds_count 1
# TYPE mid_rate gauge
mid_rate{window="60s"} 0.25
# TYPE zeta_total counter
zeta_total{shard="1"} 2
zeta_total{shard="0"} 5
`
	if buf.String() != want {
		t.Fatalf("rendering mismatch:\n got:\n%s\nwant:\n%s", buf.String(), want)
	}
	// Re-render is byte-stable.
	var buf2 bytes.Buffer
	r.WritePrometheus(&buf2)
	if buf2.String() != want {
		t.Fatal("second render differs")
	}
	// Same name + labels returns the same series.
	r.Counter("zeta_total", Label{"shard", "0"}).Add(1)
	if got := r.Counter("zeta_total", Label{"shard", "0"}).Value(); got != 6 {
		t.Fatalf("series not shared: %d", got)
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on type conflict")
		}
	}()
	r := NewRegistry()
	r.Counter("x_total")
	r.Gauge("x_total")
}

func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{8, "8"},
		{1e6, "1000000"}, // an integral count never renders as 1e+06
		{123456789, "123456789"},
		{1 << 53, "9007199254740992"},
		{0.8, "0.8"},
		{0.005, "0.005"},
		{1e-7, "1e-07"},
		{1e300, "1e+300"},
	} {
		if got := FormatValue(tc.v); got != tc.want {
			t.Errorf("FormatValue(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
