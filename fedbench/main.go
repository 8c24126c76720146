// Command fedbench is the repository's benchmark. It drives the real
// fedschedd binary over loopback HTTP with seeded load, runs the offline
// acceptance-ratio sweep in process, checks every output it can, and prints
// the end-to-end metrics (or, with -trace 1, the per-layer metrics of a
// traced run) followed by one JSON line. See README.md in this directory.
//
// Usage (from the repository root, normally through fedbench/run.sh):
//
//	fedbench -daemon <fedschedd binary> -dir <scratch dir> \
//	    --workload warm-churn --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strings"
	"syscall"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string
	echo     string // the null server's URL
	dir      string
}

// metric is one reported number; note carries its sample count and
// percentile support for the human-readable report.
type metric struct {
	name, unit string
	value      float64
	note       string
	reportOnly bool // printed in the report, left out of the JSON line
}

type result struct {
	workload          string
	metrics           []metric
	problems          []string
	attempted, failed int
}

func (r *result) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

func (r *result) report(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note, reportOnly: true})
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	spinChild()
	echoChild()
	os.Exit(run())
}

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: audit log, in-process replay and per-layer metrics")
	flag.StringVar(&cfg.daemon, "daemon", "", "path to the fedschedd binary")
	flag.StringVar(&cfg.dir, "dir", "", "directory for run files (WAL copies, audit logs, spans)")
	flag.Parse()
	cfg.trace = trace == 1
	// The harness allocates per request; collect less often so its own GC
	// takes less of the CPU the daemon shares with it.
	debug.SetGCPercent(400)
	if err := validate(cfg, trace); err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	spin, err := startSpinners()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		return 1
	}
	defer spin.stop()
	echo, err := startEcho()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		return 1
	}
	defer echo.stop()
	cfg.echo = echo.url

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames()
	}
	var results []*result
	for _, name := range names {
		sp, _ := specByName(name)
		res, err := runWorkload(ctx, cfg, sp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedbench: %s: %v\n", name, err)
			return 1
		}
		res.checkFinite()
		printReport(res, cfg)
		results = append(results, res)
	}
	line, ok := resultLine(results)
	fmt.Println(line)
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, s := range specs {
		out = append(out, s.name)
	}
	return out
}

func validate(cfg config, trace int) error {
	if _, ok := specByName(cfg.workload); !ok && cfg.workload != "all" {
		return fmt.Errorf("unknown -workload %q (want one of %s, or all)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be ≥ 1, got %d", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if cfg.daemon == "" || cfg.dir == "" {
		return fmt.Errorf("-daemon and -dir are required (run through fedbench/run.sh)")
	}
	if _, err := os.Stat(cfg.daemon); err != nil {
		return fmt.Errorf("fedschedd binary: %w", err)
	}
	return os.MkdirAll(cfg.dir, 0o755)
}

func printReport(res *result, cfg config) {
	mode := "end-to-end metrics"
	if cfg.trace {
		mode = "per-layer metrics (traced run)"
	}
	fmt.Printf("== %s (seed %d, %ds): %s\n", res.workload, cfg.seed, cfg.seconds, mode)
	for _, m := range res.metrics {
		fmt.Printf("  %-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	fmt.Printf("  attempted=%d failed=%d\n", res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// checkFinite fails the run for every gated metric without a finite value,
// such as a p50 latency when more than half the requests failed: there is no
// number to report, and the metric is left out of the JSON line.
func (r *result) checkFinite() {
	for _, m := range r.metrics {
		if !m.reportOnly && !finite(m.value) {
			r.problem("%s has no finite value (%v)", m.name, m.value)
		}
	}
}

// resultLine renders the final JSON line. With several workloads the metric
// names are prefixed with the workload name.
func resultLine(results []*result) (string, bool) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Metrics: map[string]val{}}
	for _, res := range results {
		out.Attempted += res.attempted
		out.Failed += res.failed
		for _, m := range res.metrics {
			if m.reportOnly {
				continue
			}
			name := m.name
			if len(results) > 1 {
				name = res.workload + "/" + name
			}
			if !finite(m.value) {
				out.Correct = false // checkFinite has said why
				continue
			}
			out.Metrics[name] = val{Value: m.value, Unit: m.unit}
		}
		out.Correct = out.Correct && len(res.problems) == 0
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Sprintf(`{"correct":false,"attempted":1,"failed":1,"metrics":{},"error":%q}`, err.Error()), false
	}
	return string(data), out.Correct
}

// runDir is a fresh per-run directory under cfg.dir.
func runDir(cfg config, sp spec) (string, error) {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("%s-seed%d", sp.name, cfg.seed))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
