package obs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name="value" pair qualifying a metric series.
type Label struct{ Key, Value string }

// Metric types a Registry can hold. The type names match the Prometheus
// exposition vocabulary and are rendered verbatim in # TYPE lines.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Registry is a labeled metric namespace with deterministic Prometheus text
// rendering: families sort by name, series within a family keep registration
// order. It is the daemon's one metrics surface: every /metrics family —
// per-shard series, fleet sums and merges across shards, SLO burn rates — is
// declared in one registry and rendered by WritePrometheus.
//
// All methods are safe for concurrent use. Registering the same name with a
// conflicting type panics: that is a wiring bug, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name   string
	typ    string
	series []*series
}

// series is one labeled series. Every series reads its state at scrape
// time, through value (counter and gauge families) or hist (histogram
// families); owned is the metric a typed accessor created, returned when the
// same name{labels} is asked for again.
type series struct {
	labels string // rendered label body, e.g. `shard="0"` ("" for none)
	value  func() float64
	hist   func() *Histogram
	owned  any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels joins labels into the exposition body between braces, in the
// given order. Values are quoted with the JSON/Prometheus escaping rules.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
	}
	return b.String()
}

// register returns the series name{labels}, installing fresh when it does
// not exist yet: the first registration of a series wins.
func (r *Registry) register(name, typ string, labels []Label, fresh *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, typ: typ}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	key := renderLabels(labels)
	for _, s := range f.series {
		if s.labels == key {
			return s
		}
	}
	fresh.labels = key
	f.series = append(f.series, fresh)
	return fresh
}

// Counter returns (registering on first use) the counter series for
// name{labels}.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	c := new(Counter)
	fresh := &series{value: func() float64 { return float64(c.Value()) }, owned: c}
	return r.register(name, TypeCounter, labels, fresh).owned.(*Counter)
}

// Gauge returns (registering on first use) the gauge series for name{labels}.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	g := new(Gauge)
	return r.register(name, TypeGauge, labels, &series{value: g.Value, owned: g}).owned.(*Gauge)
}

// Histogram returns (registering on first use) the histogram series for
// name{labels}.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	h := new(Histogram)
	fresh := &series{hist: func() *Histogram { return h }, owned: h}
	return r.register(name, TypeHistogram, labels, fresh).owned.(*Histogram)
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the shape fleet aggregations and burn rates take, since they derive from
// other state rather than owning any.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.register(name, TypeGauge, labels, &series{value: fn})
}

// CounterFunc is GaugeFunc with counter typing (the value must be
// monotonically non-decreasing; the registry trusts the caller).
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...Label) {
	r.register(name, TypeCounter, labels, &series{value: fn})
}

// HistogramFunc registers a histogram series whose histogram is produced at
// scrape time: a histogram some other component owns and observes into, or
// one derived on demand (a bucket-wise merge across shards).
func (r *Registry) HistogramFunc(name string, fn func() *Histogram, labels ...Label) {
	r.register(name, TypeHistogram, labels, &series{hist: fn})
}

// FormatValue renders a sample value: an integral value that float64 holds
// exactly as a plain integer ("1000000", never "1e+06"), anything else in
// the shortest 'g' form. Counts therefore read the same in the Prometheus
// exposition and in JSON views, and decode into integer fields.
func FormatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) <= 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): families sorted by name, one # TYPE line each, series in
// registration order. Histogram series render their full
// bucket/_sum/_count block via WriteHistogram, from a single consistent
// snapshot per histogram.
func (r *Registry) WritePrometheus(buf *bytes.Buffer) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]family, len(names)) // copied: series slices read unlocked
	for i, name := range names {
		fams[i] = *r.families[name]
	}
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(buf, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.series {
			if f.typ == TypeHistogram {
				extra := s.labels
				if extra != "" {
					extra += ","
				}
				WriteHistogram(buf, f.name, extra, s.hist())
				continue
			}
			buf.WriteString(f.name)
			if s.labels != "" {
				buf.WriteByte('{')
				buf.WriteString(s.labels)
				buf.WriteByte('}')
			}
			buf.WriteByte(' ')
			buf.WriteString(FormatValue(s.value()))
			buf.WriteByte('\n')
		}
	}
}
