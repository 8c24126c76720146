package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Shares of -seconds spent in each measured phase. An untraced run measures
// them in `rounds` rounds of open loop, closed loop and sweep, so that a
// slowdown of the host for a few seconds hits a few windows of every phase
// rather than all of one; throughputs are medians over windows.
const (
	openShare   = 0.47 // open loop (untraced run)
	refShare    = 0.08 // reference workload, before and after each closed loop
	closedShare = 0.3  // closed-loop capacity phase
	sweepShare  = 0.15 // in-process sweep
	rateWindow  = 500 * time.Millisecond
	rounds      = 3

	tracedOpenShare  = 0.35 // traced run: each of the untraced and traced open loops
	tracedSweepShare = 0.15

	setupBoots = 15 // boots per untraced run; setup_s is their median
	warmup     = 500 * time.Millisecond
)

// instance is one booted daemon with its client.
type instance struct {
	d    *daemon
	c    *client
	base []record // base-system installs (in-memory workloads)
	wal  string   // the daemon's -wal-dir (durable workloads)
}

// boot execs the daemon and installs the base system (in-memory workloads)
// or lets it recover the pre-written store (durable workloads). The returned
// duration runs from exec until the first timed request can go out.
func boot(ctx context.Context, cfg config, sp spec, in *inputs, dir, pristine, audit string, keep bool) (*instance, time.Duration, error) {
	args := []string{"-m", strconv.Itoa(in.m)}
	s := &instance{}
	if sp.durable {
		s.wal = filepath.Join(dir, "wal")
		if err := os.RemoveAll(s.wal); err != nil {
			return nil, 0, err
		}
		if err := copyTree(pristine, s.wal); err != nil {
			return nil, 0, err
		}
		args = append(args, "-wal-dir", s.wal)
	}
	if audit != "" {
		args = append(args, "-audit", audit)
	}
	d, err := startDaemon(cfg.daemon, args...)
	if err != nil {
		return nil, 0, err
	}
	s.d = d
	s.c = newClient(d.url, in, sp.fresh, keep, runtime.GOMAXPROCS(0))
	s.c.echo = cfg.echo
	if !sp.durable {
		if s.base, err = s.c.installBase(ctx); err != nil {
			s.stop()
			return nil, 0, err
		}
	}
	return s, time.Since(d.started), nil
}

func (s *instance) stop() error {
	s.c.close()
	return s.d.stop()
}

// slots draws the open-loop slot pattern: each slot is a read, a null round
// trip, or a mutation (marked opAdmit).
func slots(sp spec, seed int64, stream int, dur time.Duration) ([]opKind, time.Duration) {
	rate := sp.mutRate + sp.readRate + nullRate
	n := int(rate * dur.Seconds())
	r := rand.New(rand.NewSource(seed*1009 + int64(stream)))
	out := make([]opKind, n)
	for i := range out {
		switch x := r.Float64() * rate; {
		case x < sp.readRate:
			out[i] = opRead
		case x < sp.readRate+nullRate:
			out[i] = opNull
		default:
			out[i] = opAdmit
		}
	}
	return out, time.Duration(float64(time.Second) / rate)
}

// warmUp runs an untimed stretch of the open loop.
func warmUp(ctx context.Context, s *instance, sp spec, seed int64, live *liveSet) []record {
	ws, wi := slots(sp, seed, 10, warmup)
	warm := s.c.runOpen(ctx, sp, ws, wi, runtime.GOMAXPROCS(0), live)
	for i := range warm {
		warm[i].timed = false
	}
	return warm
}

// openPhase runs the timed open loop; each round draws its own slot
// pattern.
func openPhase(ctx context.Context, s *instance, sp spec, seed int64, round int, dur time.Duration, live *liveSet) []record {
	ts, ti := slots(sp, seed, 11+round, dur)
	return s.c.runOpen(ctx, sp, ts, ti, runtime.GOMAXPROCS(0), live)
}

// lateness is the generator's send delay (sent − due) of every timed
// request, in ms: the part of a latency that the daemon did not cause.
func lateness(recs []record) []float64 {
	var out []float64
	for i := range recs {
		if recs[i].timed {
			out = append(out, float64(recs[i].sent.Sub(recs[i].due).Nanoseconds())/1e6)
		}
	}
	return out
}

// latencies splits timed records by kind into latency series in ms; failed
// requests are +Inf.
func latencies(recs []record) (by [4][]float64, attempted, failed int) {
	for i := range recs {
		r := &recs[i]
		if !r.timed {
			continue
		}
		attempted++
		v := math.Inf(1)
		if r.completed {
			v = float64(r.latency().Nanoseconds()) / 1e6
		} else {
			failed++
		}
		by[r.kind] = append(by[r.kind], v)
	}
	return by, attempted, failed
}

// verdicts counts timed admits answered 200 and 409.
func verdicts(recs []record) (admitted, rejected int) {
	for i := range recs {
		if r := &recs[i]; r.timed && r.kind == opAdmit {
			switch r.status {
			case http.StatusOK:
				admitted++
			case http.StatusConflict:
				rejected++
			}
		}
	}
	return admitted, rejected
}

// checkAndSettle runs the end-of-run checks on a live instance: the installed
// set against the clients' live sets, then the serial settle phase with its
// byte-equality checks, then (durable workloads) a restart that must recover
// the same allocation bytes. It returns the settle records.
func checkAndSettle(ctx context.Context, cfg config, s *instance, sp spec, res *result, l *liveSet) ([]record, error) {
	live, err := s.c.checkLiveSet(ctx, l)
	if err != nil {
		res.problem("%v", err)
	}
	final, recs, err := s.c.settle(ctx, live)
	if err != nil {
		res.problem("%v", err)
		return nil, nil
	}
	if n := s.c.errs500.Load(); n > 0 {
		res.problem("%d responses with status 500", n)
	}
	if !sp.durable {
		return recs, nil
	}
	if err := s.stop(); err != nil {
		res.problem("durable daemon did not drain cleanly: %v", err)
	}
	d, err := startDaemon(cfg.daemon, "-m", strconv.Itoa(s.c.in.m), "-wal-dir", s.wal)
	if err != nil {
		return nil, fmt.Errorf("restarting durable daemon: %w", err)
	}
	c := newClient(d.url, s.c.in, false, false, 1)
	got, err := c.getAllocation(ctx)
	c.close()
	if stopErr := d.stop(); stopErr != nil {
		res.problem("restarted daemon did not drain cleanly: %v", stopErr)
	}
	if err != nil {
		return nil, err
	}
	if string(got) != string(final) {
		res.problem("durable restart recovered a different allocation")
	}
	return recs, nil
}

// split deals a live set out to n closed-loop clients; the first also takes
// its uncertain tasks.
func split(l *liveSet, n int) []*liveSet {
	out := make([]*liveSet, n)
	for i := range out {
		out[i] = &liveSet{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, name := range l.names {
		out[i%n].names = append(out[i%n].names, name)
	}
	out[0].unknown = append(out[0].unknown, l.unknown...)
	return out
}

// allLive merges live sets.
func allLive(sets ...*liveSet) *liveSet {
	out := &liveSet{}
	for _, l := range sets {
		l.mu.Lock()
		out.names = append(out.names, l.names...)
		out.unknown = append(out.unknown, l.unknown...)
		l.mu.Unlock()
	}
	return out
}

func runWorkload(ctx context.Context, cfg config, sp spec) (*result, error) {
	in, err := makeInputs(sp, cfg.seed)
	if err != nil {
		return nil, err
	}
	dir, err := runDir(cfg, sp)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	pristine := ""
	if sp.durable {
		pristine = filepath.Join(dir, "pristine")
		if err := writePristineStore(pristine, in.base); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		return tracedRun(ctx, cfg, sp, in, dir, pristine)
	}
	return untracedRun(ctx, cfg, sp, in, dir, pristine)
}

func untracedRun(ctx context.Context, cfg config, sp spec, in *inputs, dir, pristine string) (*result, error) {
	total := time.Duration(cfg.seconds) * time.Second
	lanes := runtime.GOMAXPROCS(0)
	res := &result{workload: sp.name}

	var setups []float64
	var s *instance
	for i := 0; i < setupBoots; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		if s, d, err = boot(ctx, cfg, sp, in, dir, pristine, "", false); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer s.stop()

	live := &liveSet{}
	warmUp(ctx, s, sp, cfg.seed, live)
	var open, closed []record
	var capacities, sweepRates, refs []float64
	var closedTime time.Duration
	var rss float64
	sw := sweepResult{}
	for round := 0; round < rounds; round++ {
		open = append(open, openPhase(ctx, s, sp, cfg.seed, round, time.Duration(openShare/rounds*float64(total)), live)...)
		if round == 0 {
			// The peak RSS is taken after the first open loop, whose request
			// count is fixed by its rate, so that it does not grow with the
			// closed loop's throughput.
			var err error
			if rss, err = procHWM(s.d.pid()); err != nil {
				return nil, err
			}
		}

		refPart := time.Duration(refShare / rounds / 2 * float64(total))
		refs = append(refs, refRates(refPart, lanes)...)
		lives := split(live, lanes)
		recs, start, elapsed := s.c.runClosed(ctx, sp, time.Duration(closedShare/rounds*float64(total)), lanes, lives)
		live = allLive(lives...)
		var done []time.Time
		for i := range recs {
			if recs[i].completed {
				done = append(done, recs[i].done)
			}
		}
		closed = append(closed, recs...)
		closedTime += elapsed
		capacities = append(capacities, windowRates(done, start, elapsed, rateWindow)...)

		refs = append(refs, refRates(refPart, lanes)...)
		r := runSweep(ctx, cfg.seed*rounds+int64(round), time.Duration(sweepShare/rounds*float64(total)), lanes, nil)
		sweepRates = append(sweepRates, windowRates(r.done, r.start, r.elapsed, rateWindow)...)
		sw.systems += r.systems
		sw.accepted += r.accepted
		sw.elapsed += r.elapsed
		sw.problems = append(sw.problems, r.problems...)
	}
	by, attempted, failed := latencies(open)
	admitted, rejected := verdicts(open)
	closedDone := 0
	for i := range closed {
		if closed[i].completed {
			closedDone++
		} else {
			failed++
		}
	}
	attempted += len(closed)

	if _, err := checkAndSettle(ctx, cfg, s, sp, res, live); err != nil {
		return nil, err
	}
	if err := s.stop(); err != nil {
		res.problem("daemon did not drain cleanly: %v", err)
	}
	for _, p := range sw.problems {
		res.problem("%s", p)
	}

	sort.Float64s(setups)
	res.add("setup_s", "s", setups[len(setups)/2], fmt.Sprintf("median of %d boots; m=%d, %d base tasks", len(setups), in.m, len(in.base)))
	// Latencies are gated as ratios to the null server's round trip in the
	// same open loop: the host's speed drifts between runs by more than any
	// bound, and moves a loopback round trip much as it moves the daemon's
	// requests. The milliseconds are printed beside them.
	null := summarize(by[opNull])
	if null.n == 0 {
		res.problem("no null samples")
	}
	for _, k := range []opKind{opAdmit, opRemove, opRead} {
		sum := summarize(by[k])
		if sum.n == 0 {
			res.problem("no %s samples", k)
		}
		res.add(fmt.Sprintf("%s_p50_vs_null", k), "ratio", sum.q(500)/null.q(500), fmt.Sprintf("p50 over the null server's p50 (%.4g ms)", null.q(500)))
		note := sum.describe("ms")
		if k == opAdmit {
			note += fmt.Sprintf("; %d installed, %d rejected", admitted, rejected)
		}
		res.report(fmt.Sprintf("%s_p50_ms", k), "ms", sum.q(500), note+"; reported, not gated")
		// The p99 is printed but not gated: on a shared virtual machine the
		// host's wake-up jitter sets it, and its run-to-run spread is far
		// wider than any bound the benchmark could hold it to.
		res.report(fmt.Sprintf("%s_p99_ms", k), "ms", sum.q(990), fmt.Sprintf("n=%d; reported, not gated", sum.n))
	}
	res.report("null_p50_ms", "ms", null.q(500), "null server round trip, "+null.describe("ms")+"; reported, not gated")
	late := summarize(lateness(open))
	res.report("late_p50_ms", "ms", late.q(500), fmt.Sprintf("generator send delay (sent − due), %s; reported, not gated", late.describe("ms")))
	// Throughputs are gated as ratios to the reference workload's rate,
	// measured next to them, for the same reason.
	capacity, sweepRate, ref := median(capacities), median(sweepRates), median(refs)
	res.add("capacity_vs_ref", "ratio", capacity/ref, "capacity_ops_s over ref_units_s")
	res.add("sweep_vs_ref", "ratio", sweepRate/ref, "sweep_systems_s over ref_units_s")
	res.report("capacity_ops_s", "1/s", capacity,
		fmt.Sprintf("median of %d windows; %d mutations by %d closed-loop clients in %.2fs; reported, not gated", len(capacities), closedDone, lanes, closedTime.Seconds()))
	res.report("sweep_systems_s", "1/s", sweepRate,
		fmt.Sprintf("median of %d windows; %d systems (%d accepted) on %d workers in %.2fs; reported, not gated", len(sweepRates), sw.systems, sw.accepted, lanes, sw.elapsed.Seconds()))
	res.report("ref_units_s", "1/s", ref, fmt.Sprintf("reference units per second, median of %d windows of %v; reported, not gated", len(refs), refWindow))
	res.add("peak_rss_mb", "MiB", rss, "daemon VmHWM at the end of the first open loop")
	res.attempted = attempted + sw.systems
	res.failed = failed
	return res, nil
}
