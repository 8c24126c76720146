package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"fedsched/internal/obs"
)

// metrics holds one shard's counters: lock-free atomics bumped on the
// admission path and read only at scrape time.
//
// Admission latency is an obs.Histogram — the same log-bucketed implementation
// the rest of the pipeline uses — which replaced an earlier bespoke sample
// ring whose quantile estimator used floor(p·(n−1)) indexing and so
// under-reported tail quantiles on small windows (obs.Histogram.Quantile is
// ceil nearest-rank).
type metrics struct {
	admits     obs.Counter // tasks accepted and installed (batch members count singly)
	batches    obs.Counter // batch admissions accepted atomically
	rejects    obs.Counter // admissions rejected by the FEDCONS analysis
	removes    obs.Counter // tasks removed
	shed       obs.Counter // requests dropped by queue-bound load shedding
	timeouts   obs.Counter // requests answered 504 (deadline expired)
	errors     obs.Counter // malformed requests (decode/validation failures)
	walAppends obs.Counter // mutation records fsynced to the write-ahead log
	snapshots  obs.Counter // snapshots written (each truncates the WAL)
	latency    obs.Histogram
}

// shardVar is one per-shard scalar: its key (the metric name without the
// fedschedd_ prefix) and a scrape-time read.
type shardVar struct {
	key string
	val func() float64
}

// buildVars assembles the shard's one list of scalars (Shard.vars). /metrics
// registers each as a fedschedd_<key> family (counter when the key ends in
// _total, else gauge) and /debug/vars renders the same list, so the two
// views cannot disagree. The WAL keys appear only on durable shards.
func (s *Shard) buildVars() []shardVar {
	count := func(c *obs.Counter) func() float64 { return func() float64 { return float64(c.Value()) } }
	vs := []shardVar{
		{"admits_total", count(&s.met.admits)},
		{"batch_admits_total", count(&s.met.batches)},
		{"rejects_total", count(&s.met.rejects)},
		{"removes_total", count(&s.met.removes)},
		{"shed_total", count(&s.met.shed)},
		{"timeouts_total", count(&s.met.timeouts)},
		{"errors_total", count(&s.met.errors)},
		{"queue_depth", func() float64 { return float64(len(s.reqs)) }},
		{"queue_bound", func() float64 { return float64(cap(s.reqs)) }},
		{"tasks", func() float64 { return float64(s.taskCount()) }},
		{"cache_entries", func() float64 { return float64(s.cache.Len()) }},
		{"cache_hits", func() float64 { h, _ := s.cache.Stats(); return float64(h) }},
		{"cache_misses", func() float64 { _, mi := s.cache.Stats(); return float64(mi) }},
		{"cache_hit_rate", func() float64 {
			h, mi := s.cache.Stats()
			if h+mi == 0 {
				return 0
			}
			return float64(h) / float64(h+mi)
		}},
	}
	if s.store != nil {
		vs = append(vs,
			shardVar{"wal_appends_total", count(&s.met.walAppends)},
			shardVar{"wal_snapshots_total", count(&s.met.snapshots)},
			shardVar{"wal_seq", func() float64 { return float64(s.store.Seq()) }})
	}
	return vs
}

// register declares the shard's series in r: every scalar of vars plus the
// admission-latency histogram, each labeled {shard="<id>"} when labeled.
func (s *Shard) register(r *obs.Registry, labeled bool) {
	var labels []obs.Label
	if labeled {
		labels = []obs.Label{{Key: "shard", Value: strconv.Itoa(s.id)}}
	}
	for _, v := range s.vars {
		if strings.HasSuffix(v.key, "_total") {
			r.CounterFunc("fedschedd_"+v.key, v.val, labels...)
		} else {
			r.GaugeFunc("fedschedd_"+v.key, v.val, labels...)
		}
	}
	r.HistogramFunc("fedschedd_admit_latency_seconds", func() *obs.Histogram { return &s.met.latency }, labels...)
}

// debugVars renders the shard's /debug/vars object: the vars list plus the
// admission-latency quantiles in nanoseconds.
func (s *Shard) debugVars() map[string]any {
	m := make(map[string]any)
	for _, v := range s.vars {
		m[v.key] = json.Number(obs.FormatValue(v.val()))
	}
	m["admit_latency_p50_ns"] = s.met.latency.Quantile(0.50)
	m["admit_latency_p99_ns"] = s.met.latency.Quantile(0.99)
	m["admit_latency_p999_ns"] = s.met.latency.Quantile(0.999)
	return m
}

// taskCount is the installed system's size: the one read behind the tasks
// and fleet_tasks gauges and healthz.
func (s *Shard) taskCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sys)
}

// newRegistry declares every /metrics family in one obs.Registry: each
// shard's series (labeled {shard="<i>"} when there is more than one shard),
// the fleet-wide sums and latency merge across shards, and the SLO ledger.
// Everything is a scrape-time Func over live state — the registry owns no
// double-counted copies.
func (s *Server) newRegistry() *obs.Registry {
	r := obs.NewRegistry()
	for _, sh := range s.shards {
		sh.register(r, len(s.shards) > 1)
	}
	sum := func(get func(*Shard) int64) func() float64 {
		return func() float64 {
			var t int64
			for _, sh := range s.shards {
				t += get(sh)
			}
			return float64(t)
		}
	}
	r.CounterFunc("fedschedd_fleet_admits_total", sum(func(sh *Shard) int64 { return sh.met.admits.Value() }))
	r.CounterFunc("fedschedd_fleet_batch_admits_total", sum(func(sh *Shard) int64 { return sh.met.batches.Value() }))
	r.CounterFunc("fedschedd_fleet_rejects_total", sum(func(sh *Shard) int64 { return sh.met.rejects.Value() }))
	r.CounterFunc("fedschedd_fleet_removes_total", sum(func(sh *Shard) int64 { return sh.met.removes.Value() }))
	r.CounterFunc("fedschedd_fleet_shed_total", sum(func(sh *Shard) int64 { return sh.met.shed.Value() }))
	r.CounterFunc("fedschedd_fleet_timeouts_total", sum(func(sh *Shard) int64 { return sh.met.timeouts.Value() }))
	r.CounterFunc("fedschedd_fleet_errors_total", sum(func(sh *Shard) int64 { return sh.met.errors.Value() }))
	r.GaugeFunc("fedschedd_fleet_shards", func() float64 { return float64(len(s.shards)) })
	r.GaugeFunc("fedschedd_fleet_tasks", sum(func(sh *Shard) int64 { return int64(sh.taskCount()) }))
	r.HistogramFunc("fedschedd_fleet_admit_latency_seconds", s.fleetLatency)
	s.slo.register(r)
	return r
}

// fleetLatency merges every shard's admit-latency histogram into one. The
// log-bucketed histograms share fixed boundaries, so the bucket-wise add is
// exact: the fleet histogram's quantiles are as trustworthy as any single
// shard's (no cross-histogram interpolation error).
func (s *Server) fleetLatency() *obs.Histogram {
	var merged obs.Histogram
	for _, sh := range s.shards {
		merged.AddHistogram(&sh.met.latency)
	}
	return &merged
}

// handleMetrics serves the registry in the Prometheus text exposition format
// (version 0.0.4): families sorted by name, so the page is deterministic.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	s.registry.WritePrometheus(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// handleVars serves /debug/vars: a single-shard server's map flat, a
// multi-shard server's maps nested under "shard_<i>".
func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	var v any
	if len(s.shards) == 1 {
		v = s.shards[0].debugVars()
	} else {
		nested := make(map[string]any, len(s.shards))
		for _, sh := range s.shards {
			nested[fmt.Sprintf("shard_%d", sh.id)] = sh.debugVars()
		}
		v = nested
	}
	body, _ := json.MarshalIndent(v, "", "  ")
	writeJSON(w, opResult{status: http.StatusOK, body: append(body, '\n')})
}
