package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// layerSpans are the replay's per-layer spans, reported as self-time
// p50/p99 in µs plus a call count.
var layerSpans = []string{
	"dag.decode", "core.hash", "core.minprocs", "core.schedule",
	"core.admit_low", "core.remove_low", "core.verify", "core.verify_delta",
	"partition.rebuild", "store.log", "store.snapshot", "obs.sampled_trace",
	"service.encode",
}

// sweepSpans are the sweep's per-layer spans.
var sweepSpans = []string{"gen.system", "sweep.schedule", "sweep.verify", "sim.federated"}

// tracedRun measures per-layer costs. It runs the open loop twice — once
// against a plain daemon and once against a daemon writing -audit — so the
// tracing overhead shows, then replays the audited operations in process.
func tracedRun(ctx context.Context, cfg config, sp spec, in *inputs, dir, pristine string) (*result, error) {
	total := time.Duration(cfg.seconds) * time.Second
	openDur := time.Duration(tracedOpenShare * float64(total))
	lanes := runtime.GOMAXPROCS(0)
	res := &result{workload: sp.name}

	// Untraced reference.
	ref, _, err := boot(ctx, cfg, sp, in, dir, pristine, "", false)
	if err != nil {
		return nil, err
	}
	refLive := &liveSet{}
	warmUp(ctx, ref, sp, cfg.seed, refLive)
	refOpen := openPhase(ctx, ref, sp, cfg.seed, 0, openDur, refLive)
	if n := ref.c.errs500.Load(); n > 0 {
		res.problem("%d responses with status 500", n)
	}
	if err := ref.stop(); err != nil {
		res.problem("daemon did not drain cleanly: %v", err)
	}
	refBy, _, _ := latencies(refOpen)

	// Traced run.
	auditPath := filepath.Join(dir, "audit.jsonl")
	s, _, err := boot(ctx, cfg, sp, in, dir, pristine, auditPath, true)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	live := &liveSet{}
	cpu0, err := procCPU(s.d.pid())
	if err != nil {
		return nil, err
	}
	self0, t0 := selfCPU(), time.Now()
	warm := warmUp(ctx, s, sp, cfg.seed, live)
	open := openPhase(ctx, s, sp, cfg.seed, 0, openDur, live)
	wall, self := time.Since(t0), selfCPU()-self0
	cpu1, err := procCPU(s.d.pid())
	if err != nil {
		return nil, err
	}
	by, attempted, failed := latencies(open)
	res.attempted, res.failed = attempted, failed
	appends, err := s.c.walAppends(ctx)
	if err != nil {
		return nil, err
	}
	settle, err := checkAndSettle(ctx, cfg, s, sp, res, live)
	if err != nil {
		return nil, err
	}
	if err := s.stop(); err != nil {
		res.problem("daemon did not drain cleanly: %v", err)
	}

	audit, err := readAudit(auditPath)
	if err != nil {
		return nil, err
	}
	recs := map[string]*record{}
	for _, group := range [][]record{s.base, warm, open, settle} {
		for i := range group {
			if r := &group[i]; (r.kind == opAdmit || r.kind == opRemove) && r.trace != "" {
				recs[r.trace] = r
			}
		}
	}
	recoverDir := ""
	if sp.durable {
		recoverDir = filepath.Join(dir, "replay")
		if err := copyTree(pristine, recoverDir); err != nil {
			return nil, err
		}
		recoverDir = filepath.Join(recoverDir, "shard-0")
	}
	tr := newTracer(len(audit) * 12)
	rep, recoverTime, err := replay(in, audit, recs, recoverDir, tr)
	if err != nil {
		return nil, err
	}
	// The daemon's WAL appends up to the settle phase must match the
	// replay's store.log calls for the same operations.
	settled := map[string]bool{}
	for i := range settle {
		settled[settle[i].trace] = true
	}
	logged := 0
	for _, span := range tr.spans {
		if span.name == "store.log" && !settled[audit[span.op].TraceID] {
			logged++
		}
	}
	if logged != appends {
		res.problem("the daemon made %d WAL appends before the settle phase, the replay %d", appends, logged)
	}
	for i, m := range rep.mismatches {
		if i == 5 {
			res.problem("… %d replay mismatches in all", len(rep.mismatches))
			break
		}
		res.problem("replayed verdict differs: %s", m)
	}

	stw := newTracer(1 << 16)
	sw := runSweep(ctx, cfg.seed, time.Duration(tracedSweepShare*float64(total)), lanes, stw)
	for _, p := range sw.problems {
		res.problem("%s", p)
	}
	res.attempted += sw.systems
	stem := filepath.Join(cfg.dir, fmt.Sprintf("%s-seed%d", sp.name, cfg.seed))
	if err := tr.write(stem + "-replay-spans.jsonl"); err != nil {
		return nil, err
	}
	if err := stw.write(stem + "-sweep-spans.jsonl"); err != nil {
		return nil, err
	}

	// loadgen: the generator's own lateness and CPU.
	lateSum := summarize(lateness(open))
	res.add("loadgen.late_p50_ms", "ms", lateSum.q(500), lateSum.describe("ms"))
	res.add("loadgen.late_p99_ms", "ms", lateSum.q(990), "")
	res.add("loadgen.cpu_frac", "frac", self.Seconds()/wall.Seconds(), "harness CPU seconds per wall second of the open loop")
	res.add("loadgen.failed_frac", "frac", float64(failed)/denom(attempted), fmt.Sprintf("%d of %d", failed, attempted))

	// service: the daemon's writer loop, from its audit records and /proc.
	var loop []float64
	for op := range rep.opTimed {
		loop = append(loop, float64(rep.loopNs[op])/1e3)
	}
	addDist(res, "service.loop_us", loop)
	addDist(res, "service.outside_loop_us", rep.outsideUs)
	addDist(res, "service.unaccounted_us", rep.unaccountedUs)
	served := 0
	for _, group := range [][]record{warm, open} {
		for i := range group {
			if group[i].completed {
				served++
			}
		}
	}
	res.add("service.cpu_ms_per_op", "ms", float64((cpu1-cpu0).Microseconds())/1e3/denom(served), fmt.Sprintf("daemon CPU over %d requests", served))
	res.add("service.cache_hit_ratio", "frac", rep.hitRatio, fmt.Sprintf("%d Phase-1 memo lookups", rep.lookups))
	res.add("service.warm_ratio", "frac", float64(rep.warmOps)/denom(rep.pathOps),
		fmt.Sprintf("from the audit: %d of %d mutations made no Phase-1 memo lookup", rep.warmOps, rep.pathOps))
	vb := summarize(rep.verdictBytes)
	res.add("service.verdict_bytes", "bytes", zeroNaN(vb.q(500)), fmt.Sprintf("p50 of %d verdicts", vb.n))
	res.add("service.alloc_bytes_per_op", "bytes", rep.allocBytesPerOp, fmt.Sprintf("replay heap allocation over %d ops", rep.ops))

	self1 := tr.selfTimes()
	for _, name := range layerSpans {
		var xs []float64
		for i, sp := range tr.spans {
			if sp.name == name && rep.opTimed[sp.op] {
				xs = append(xs, float64(self1[i].Nanoseconds())/1e3)
			}
		}
		addDist(res, name+"_us", xs)
	}
	rpm := summarize(rep.runsPerMiss)
	res.add("listsched.runs_per_miss", "count", zeroNaN(rpm.mean()), fmt.Sprintf("mean over %d Phase-1 misses", rpm.n))
	res.add("store.recover_s", "s", recoverTime.Seconds(), "store.Open of the pre-written store (durable workloads)")

	self2 := stw.selfTimes()
	for _, name := range sweepSpans {
		var xs []float64
		for i, sp := range stw.spans {
			if sp.name == name {
				xs = append(xs, float64(self2[i].Nanoseconds())/1e3)
			}
		}
		addDist(res, name+"_us", xs)
	}

	untraced, traced := summarize(refBy[opAdmit]), summarize(by[opAdmit])
	res.add("trace_overhead_frac", "frac", traced.q(500)/untraced.q(500)-1,
		fmt.Sprintf("traced admit p50 %.4gms vs untraced %.4gms", traced.q(500), untraced.q(500)))
	res.add("replay.ops", "count", float64(rep.ops), fmt.Sprintf("%d byte-equal, %d timed", rep.ops-len(rep.mismatches), rep.timedOps))
	return res, nil
}

// addDist reports a series as <name>.p50, <name>.p99 and <name>.count.
func addDist(res *result, name string, xs []float64) {
	s := summarize(xs)
	res.add(name+".p50", "us", zeroNaN(s.q(500)), s.describe("us"))
	res.add(name+".p99", "us", zeroNaN(s.q(990)), "")
	res.add(name+".count", "count", float64(s.n), "")
}

func zeroNaN(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// denom is n as a divisor: an empty series divides by 1 and reads 0.
func denom(n int) float64 {
	if n < 1 {
		return 1
	}
	return float64(n)
}
