package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"fedsched/internal/core"
	"fedsched/internal/obs"
	"fedsched/internal/partition"
	"fedsched/internal/service"
	"fedsched/internal/store"
	"fedsched/internal/task"
)

// The replay re-executes the daemon's writer-loop operations in process, in
// the order the daemon's -audit log records them, through the same public
// functions the shard calls, with the same warm/full decision. Each call is a
// span, so every layer's share of a mutation can be read off. Every replayed
// verdict must be byte-equal to the daemon's response for that operation.

// readAudit parses a -audit JSONL file.
func readAudit(path string) ([]service.AdmissionRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []service.AdmissionRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r service.AdmissionRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("audit line %d: %w", len(out)+1, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// replayer mirrors one shard's writer-loop state.
type replayer struct {
	m      int
	opt    core.Options
	cache  *service.AnalysisCache
	st     *store.Store // durable workloads only
	sys    task.System
	hashes []string
	alloc  *core.Allocation
	pstate *partition.State
	tick   int64 // full-path admits so far: drives the 1-in-N trace sampling
	tr     *tracer

	runsPerMiss []float64 // LS scans per Phase-1 memo miss (timed ops only)
}

func newReplayer(m int, opt core.Options, tr *tracer) *replayer {
	return &replayer{m: m, opt: opt, cache: service.NewAnalysisCache(), tr: tr}
}

// recoverFrom opens a copy of the daemon's store and rebuilds the state the
// daemon recovered at boot. It returns the store.Open time.
func (r *replayer) recoverFrom(dir string) (time.Duration, error) {
	t0 := time.Now()
	st, rec, err := store.Open(dir, 0)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	r.st = st
	if len(rec.Tasks) == 0 {
		return d, nil
	}
	alloc, err := r.cache.Schedule(rec.Tasks, r.m, r.opt)
	if err != nil {
		return 0, fmt.Errorf("replay recovery: %w", err)
	}
	if err := core.Verify(rec.Tasks, r.m, alloc); err != nil {
		return 0, fmt.Errorf("replay recovery: %w", err)
	}
	r.sys, r.alloc, r.hashes = rec.Tasks, alloc, rec.Hashes
	r.rebuild(-1, -1)
	return d, nil
}

func (r *replayer) close() {
	if r.st != nil {
		r.st.Close()
	}
}

// warm reports whether the shard would serve a mutation of a task with the
// given density from its live partition state (service's fastAdmit and
// fastRemove conditions for an untraced single mutation).
func (r *replayer) warm(high bool) bool {
	return r.alloc != nil && !high && r.opt.Policy != core.PolicyTyped &&
		r.pstate != nil &&
		r.pstate.Len() == len(r.alloc.Servers)+len(r.alloc.LowIndices) &&
		r.pstate.M() == len(r.alloc.SharedProcs) &&
		r.alloc.Policy == r.opt.Policy
}

func errBody(msg string) []byte {
	b, _ := json.Marshal(map[string]string{"error": msg})
	return append(b, '\n')
}

// encode builds and encodes the verdict, as the shard does for its reply.
func (r *replayer) encode(op, parent int, sys task.System, alloc *core.Allocation, err error) ([]byte, error) {
	i := r.tr.begin("service.encode", op, parent)
	defer r.tr.end(i)
	return service.NewVerdict(sys, r.m, alloc, err).Encode()
}

func (r *replayer) rebuild(op, parent int) {
	i := r.tr.begin("partition.rebuild", op, parent)
	defer r.tr.end(i)
	r.pstate = nil
	if r.alloc == nil {
		return
	}
	combined, err := core.PartitionSystem(r.sys, r.alloc)
	if err != nil {
		return
	}
	if st, err := partition.Rebuild(combined, len(r.alloc.SharedProcs), r.alloc.Low, r.opt.Partition); err == nil {
		r.pstate = st
	}
}

func (r *replayer) logAdmit(op, parent int, tk *task.DAGTask, hash string) error {
	if r.st == nil {
		return nil
	}
	i := r.tr.begin("store.log", op, parent)
	defer r.tr.end(i)
	return r.st.LogAdmit([]*task.DAGTask{tk}, []string{hash}, "", "")
}

func (r *replayer) logRemove(op, parent int, name string) error {
	if r.st == nil {
		return nil
	}
	i := r.tr.begin("store.log", op, parent)
	defer r.tr.end(i)
	return r.st.LogRemove(name, "", "")
}

func (r *replayer) maybeSnapshot(op, parent int) error {
	if r.st == nil {
		return nil
	}
	i := r.tr.begin("store.snapshot", op, parent)
	wrote, err := r.st.MaybeSnapshot(r.sys, r.hashes, r.m, r.opt.Policy)
	r.tr.end(i)
	if !wrote {
		r.tr.rename(i, "") // a no-op check is not a snapshot
	}
	return err
}

// outcome is one replayed operation's reply and path. observable marks an
// operation whose path the daemon's audit record shows: its trial system holds
// a high-density task, so the full path looks up the Phase-1 memo and the warm
// path never does.
type outcome struct {
	status     int
	body       []byte
	warm       bool
	observable bool
}

func hasHigh(sys task.System) bool {
	for _, tk := range sys {
		if tk.HighDensity() {
			return true
		}
	}
	return false
}

// admit replays one admission (service's doAdmit / fastAdmit).
func (r *replayer) admit(op int, tk *task.DAGTask, timed bool) (outcome, error) {
	root := r.tr.begin("service.loop", op, -1)
	defer r.tr.end(root)
	for _, cur := range r.sys {
		if cur.Name == tk.Name {
			return outcome{status: http.StatusConflict, body: errBody(fmt.Sprintf("task %q already admitted; remove it first", tk.Name))}, nil
		}
	}
	trial := append(r.sys.Clone(), tk)
	observable := hasHigh(trial)
	if r.warm(tk.HighDensity()) {
		var alloc *core.Allocation
		var err error
		r.tr.timed("core.admit_low", op, root, func() { alloc, err = core.AdmitLow(r.alloc, r.pstate, tk) })
		if err != nil {
			body, eerr := r.encode(op, root, trial, nil, err)
			return outcome{http.StatusConflict, body, true, observable}, eerr
		}
		r.tr.timed("core.verify_delta", op, root, func() { err = core.VerifyDelta(trial, r.m, alloc, r.sys, r.alloc) })
		if err != nil {
			return outcome{}, fmt.Errorf("replay: warm admit of %s failed verification: %w", tk.Name, err)
		}
		var hash string
		r.tr.timed("core.hash", op, root, func() { hash = core.TaskHash(tk).String() })
		if err := r.logAdmit(op, root, tk, hash); err != nil {
			return outcome{}, err
		}
		r.sys, r.alloc, r.hashes = trial, alloc, append(append([]string(nil), r.hashes...), hash)
		if err := r.maybeSnapshot(op, root); err != nil {
			return outcome{}, err
		}
		body, err := r.encode(op, root, trial, alloc, nil)
		return outcome{http.StatusOK, body, true, observable}, err
	}

	// Full path. One in DefaultFlightSampleEvery full-path admits records
	// its decision trace (the shard's speculative sampling).
	r.tick++
	var srec *obs.Recorder
	opt := r.opt
	schedName := "core.schedule"
	if r.tick%service.DefaultFlightSampleEvery == 0 {
		srec = obs.New(obs.DefaultLimits)
		opt.Trace = srec
		schedName = "obs.sampled_trace"
	}
	sched := r.tr.begin(schedName, op, root)
	if tk.HighDensity() && srec == nil {
		// Resolve the new task's Phase-1 memo entry first, so the MINPROCS
		// scan of a miss is timed apart from the rest of the analysis. The
		// call hashes the task too; a hit costs only that.
		_, m0 := r.cache.Stats()
		mp := r.tr.begin("core.minprocs", op, sched)
		one, _ := r.cache.Schedule(task.System{tk}, r.m, r.opt)
		r.tr.end(mp)
		if _, m1 := r.cache.Stats(); m1 == m0 {
			r.tr.rename(mp, "core.hash")
		} else if one != nil && timed {
			w := core.Window(tk)
			ceilDensity := (tk.Volume() + w - 1) / w // the scan starts at μ = ⌈δ⌉
			r.runsPerMiss = append(r.runsPerMiss, float64(int64(len(one.High[0].Procs))-int64(ceilDensity)+1))
		}
	}
	alloc, err := r.cache.Schedule(trial, r.m, opt)
	if srec != nil {
		srec.JSON(obs.ExportOptions{Timings: true}) // the flight entry's trace bytes
	}
	r.tr.end(sched)
	if err != nil {
		body, eerr := r.encode(op, root, trial, nil, err)
		return outcome{http.StatusConflict, body, false, observable}, eerr
	}
	r.tr.timed("core.verify", op, root, func() { err = core.Verify(trial, r.m, alloc) })
	if err != nil {
		return outcome{}, fmt.Errorf("replay: admit of %s failed verification: %w", tk.Name, err)
	}
	var hash string
	if tk.HighDensity() {
		hash = core.TaskHash(tk).String() // the shard's memo already holds it: not a span
	} else {
		r.tr.timed("core.hash", op, root, func() { hash = core.TaskHash(tk).String() })
	}
	if err := r.logAdmit(op, root, tk, hash); err != nil {
		return outcome{}, err
	}
	r.sys, r.alloc, r.hashes = trial, alloc, append(append([]string(nil), r.hashes...), hash)
	r.rebuild(op, root)
	if err := r.maybeSnapshot(op, root); err != nil {
		return outcome{}, err
	}
	body, err := r.encode(op, root, trial, alloc, nil)
	return outcome{http.StatusOK, body, false, observable}, err
}

// remove replays one removal (service's doRemove / fastRemove).
func (r *replayer) remove(op int, name string) (outcome, error) {
	root := r.tr.begin("service.loop", op, -1)
	defer r.tr.end(root)
	idx := -1
	for i, cur := range r.sys {
		if cur.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return outcome{status: http.StatusNotFound, body: errBody(fmt.Sprintf("no task named %q", name))}, nil
	}
	trial := make(task.System, 0, len(r.sys)-1)
	trial = append(append(trial, r.sys[:idx]...), r.sys[idx+1:]...)
	hashes := make([]string, 0, len(r.hashes))
	hashes = append(append(hashes, r.hashes[:idx]...), r.hashes[idx+1:]...)
	warm := len(trial) > 0 && r.warm(r.sys[idx].HighDensity())
	observable := hasHigh(trial)
	unschedulable := func(err error) outcome {
		return outcome{http.StatusConflict, errBody(fmt.Sprintf("system unschedulable after removing %q: %v", name, err)), warm, observable}
	}
	var alloc *core.Allocation
	var err error
	switch {
	case len(trial) == 0:
	case warm:
		r.tr.timed("core.remove_low", op, root, func() { alloc, err = core.RemoveLow(r.alloc, r.pstate, idx) })
		if err != nil {
			return unschedulable(err), nil
		}
		r.tr.timed("core.verify_delta", op, root, func() { err = core.VerifyDelta(trial, r.m, alloc, r.sys, r.alloc) })
	default:
		r.tr.timed("core.schedule", op, root, func() { alloc, err = r.cache.Schedule(trial, r.m, r.opt) })
		if err != nil {
			return unschedulable(err), nil
		}
		r.tr.timed("core.verify", op, root, func() { err = core.Verify(trial, r.m, alloc) })
	}
	if err != nil {
		return outcome{}, fmt.Errorf("replay: removal of %s failed verification: %w", name, err)
	}
	if err := r.logRemove(op, root, name); err != nil {
		return outcome{}, err
	}
	r.sys, r.alloc, r.hashes = trial, alloc, hashes
	if !warm {
		r.rebuild(op, root)
	}
	if err := r.maybeSnapshot(op, root); err != nil {
		return outcome{}, err
	}
	if len(trial) == 0 {
		trial = nil
	}
	body, err := r.encode(op, root, trial, alloc, nil)
	return outcome{http.StatusOK, body, warm, observable}, err
}

// replayResult is what the replay measured.
type replayResult struct {
	ops, timedOps    int
	pathOps, warmOps int // timed ops whose path the audit shows; of them, warm
	allocBytesPerOp  float64
	mismatches       []string
	opTimed          map[int]bool
	loopNs           map[int]int64 // daemon writer-loop time per op
	outsideUs        []float64
	unaccountedUs    []float64
	hitRatio         float64
	lookups          int64
	verdictBytes     []float64
	runsPerMiss      []float64
}

// replay re-executes the audit log against the client's records.
func replay(in *inputs, audit []service.AdmissionRecord, recs map[string]*record, recoverDir string, tr *tracer) (*replayResult, time.Duration, error) {
	r := newReplayer(in.m, in.opt, tr)
	defer r.close()
	var recoverTime time.Duration
	if recoverDir != "" {
		d, err := r.recoverFrom(recoverDir)
		if err != nil {
			return nil, 0, err
		}
		recoverTime = d
	}
	res := &replayResult{opTimed: map[int]bool{}, loopNs: map[int]int64{}}

	// Pass 1: decode every admit body, as the daemon's handler does before
	// the operation reaches the writer loop.
	tasks := make([]*task.DAGTask, len(audit))
	for op, a := range audit {
		rec, ok := recs[a.TraceID]
		if !ok {
			return nil, 0, fmt.Errorf("audit op %d (%s %s) has no client request with trace ID %s", op, a.Op, a.Task, a.TraceID)
		}
		if rec.kind != opAdmit {
			continue
		}
		var tk task.DAGTask
		var err error
		tr.timed("dag.decode", op, -1, func() { err = json.NewDecoder(bytes.NewReader(rec.body)).Decode(&tk) })
		if err != nil {
			return nil, 0, fmt.Errorf("decoding %s: %w", rec.name, err)
		}
		tasks[op] = &tk
	}

	// Pass 2: the writer-loop operations, in daemon order.
	var hits, lookups int64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for op, a := range audit {
		rec := recs[a.TraceID]
		var out outcome
		var err error
		if rec.kind == opAdmit {
			out, err = r.admit(op, tasks[op], rec.timed)
		} else {
			out, err = r.remove(op, rec.name)
		}
		if err != nil {
			return nil, 0, err
		}
		res.ops++
		// After a 504 or a transport error the client holds no verdict; the
		// audit record still shows what the writer loop answered.
		same := out.status == a.Status && (uncertain(rec.status) || out.status == rec.status && bytes.Equal(out.body, rec.resp))
		if !same {
			res.mismatches = append(res.mismatches, fmt.Sprintf("op %d (%s %s): replay status %d, daemon %d", op, a.Op, a.Task, out.status, a.Status))
		}
		daemonWarm := a.CacheHits+a.CacheMisses == 0
		if out.observable && out.warm != daemonWarm {
			res.mismatches = append(res.mismatches, fmt.Sprintf("op %d (%s %s): replay took the %s path, daemon the %s path", op, a.Op, a.Task, pathName(out.warm), pathName(daemonWarm)))
		}
		if !rec.timed {
			continue
		}
		res.timedOps++
		res.opTimed[op] = true
		res.loopNs[op] = a.LatencyNs
		if out.observable {
			res.pathOps++
			if daemonWarm {
				res.warmOps++
			}
		}
		hits += a.CacheHits
		lookups += a.CacheHits + a.CacheMisses
		res.outsideUs = append(res.outsideUs, float64(rec.done.Sub(rec.sent).Nanoseconds()-a.LatencyNs)/1e3)
		res.verdictBytes = append(res.verdictBytes, float64(len(rec.resp)))
	}
	runtime.ReadMemStats(&ms1)
	if res.ops > 0 {
		res.allocBytesPerOp = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(res.ops)
	}
	if lookups > 0 {
		res.hitRatio = float64(hits) / float64(lookups)
	}
	res.lookups = lookups
	res.runsPerMiss = r.runsPerMiss

	// Unaccounted: the daemon's loop time minus the replay's layer spans.
	covered := map[int]time.Duration{}
	for _, s := range tr.spans {
		if s.parent >= 0 && tr.spans[s.parent].name == "service.loop" && s.name != "" {
			covered[s.op] += s.end - s.start
		}
	}
	for op := range res.opTimed {
		res.unaccountedUs = append(res.unaccountedUs, float64(res.loopNs[op]-covered[op].Nanoseconds())/1e3)
	}
	return res, recoverTime, nil
}

func pathName(warm bool) string {
	if warm {
		return "warm"
	}
	return "full"
}
