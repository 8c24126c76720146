package service

import (
	"time"

	"fedsched/internal/obs"
)

// SLO objectives. The daemon promises that sloLatencyObjective of admissions
// complete within Config.SLOLatencyBudget, and that sloErrorObjective of all
// mutations avoid server-side failure (5xx) or shedding (429). The burn-rate
// gauges report how fast the rolling window is consuming each error budget:
// 1.0 means exactly on budget, >1 means the budget runs out before the window
// does, 0 means a clean window.
const (
	sloLatencyObjective = 0.99  // 1% of admits may exceed the latency budget
	sloErrorObjective   = 0.999 // 0.1% of mutations may fail or shed
)

// DefaultSLOLatencyBudget is the per-admission latency budget when
// Config.SLOLatencyBudget is 0. Warm admissions run in ~217µs and cold full
// analyses in ~1.5ms on the reference host (results/timing_shards.json), so
// 5ms is a real ceiling, not a vanity target.
const DefaultSLOLatencyBudget = 5 * time.Millisecond

// DefaultSLOWindow is the burn-rate rolling window when Config.SLOWindow is 0.
const DefaultSLOWindow = time.Minute

// sloState is the server-wide SLO ledger: lifetime counters for the
// exposition's _total families and rolling windows for the burn-rate gauges.
// One instance is shared by every shard; all methods are safe for concurrent
// use from the shards' writer loops.
type sloState struct {
	latencyBudget time.Duration

	reqs   obs.Counter // every completed mutation
	latBad obs.Counter // admits over the latency budget
	errBad obs.Counter // mutations answering 5xx or 429

	wReqs   *obs.Window
	wLatBad *obs.Window
	wErrBad *obs.Window
}

func newSLOState(budget, window time.Duration) *sloState {
	if budget == 0 {
		budget = DefaultSLOLatencyBudget
	}
	if window <= 0 {
		window = DefaultSLOWindow
	}
	return &sloState{
		latencyBudget: budget,
		wReqs:         obs.NewWindow(window, 0),
		wLatBad:       obs.NewWindow(window, 0),
		wErrBad:       obs.NewWindow(window, 0),
	}
}

// observe records one completed mutation. op is the shard's operation label
// ("admit", "admit-batch", "remove"); the latency budget applies to the admit
// family, the error budget to everything.
func (st *sloState) observe(op string, status int, lat time.Duration) {
	if st == nil {
		return
	}
	st.reqs.Add(1)
	st.wReqs.Add(1)
	if (op == "admit" || op == "admit-batch") && lat > st.latencyBudget {
		st.latBad.Add(1)
		st.wLatBad.Add(1)
	}
	if status >= 500 || status == 429 {
		st.errBad.Add(1)
		st.wErrBad.Add(1)
	}
}

// burnRate is (bad fraction in the window) / (allowed bad fraction): the
// standard multi-window burn-rate expression with objective-normalized
// denominator. An empty window burns nothing.
func burnRate(bad, total int64, objective float64) float64 {
	if total == 0 {
		return 0
	}
	allowed := 1 - objective
	return (float64(bad) / float64(total)) / allowed
}

func (st *sloState) latencyBurnRate() float64 {
	return burnRate(st.wLatBad.Sum(), st.wReqs.Sum(), sloLatencyObjective)
}

func (st *sloState) errorBurnRate() float64 {
	return burnRate(st.wErrBad.Sum(), st.wReqs.Sum(), sloErrorObjective)
}

// register declares the SLO ledger's families in r.
func (st *sloState) register(r *obs.Registry) {
	r.GaugeFunc("fedschedd_slo_admit_latency_budget_seconds", func() float64 { return st.latencyBudget.Seconds() })
	r.GaugeFunc("fedschedd_slo_window_seconds", func() float64 { return st.wReqs.Span().Seconds() })
	r.CounterFunc("fedschedd_slo_requests_total", func() float64 { return float64(st.reqs.Value()) })
	r.CounterFunc("fedschedd_slo_admit_latency_over_budget_total", func() float64 { return float64(st.latBad.Value()) })
	r.CounterFunc("fedschedd_slo_errors_total", func() float64 { return float64(st.errBad.Value()) })
	r.GaugeFunc("fedschedd_slo_admit_latency_burn_rate", st.latencyBurnRate)
	r.GaugeFunc("fedschedd_slo_error_burn_rate", st.errorBurnRate)
}
