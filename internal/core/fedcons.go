// Package core implements Algorithm FEDCONS (paper Fig. 2), the federated
// scheduling algorithm for constrained-deadline sporadic DAG task systems,
// together with its procedure MINPROCS (Fig. 3).
//
// FEDCONS(τ, m) runs in two phases:
//
//  1. Every high-density task τ_i (δ_i ≥ 1) is assigned the minimum number of
//     dedicated processors m_i on which Graham's List Scheduling produces a
//     template schedule σ_i with makespan ≤ D_i (procedure MINPROCS). The
//     template is retained: at run time, dag-jobs of τ_i are dispatched by
//     table lookup from σ_i, never by re-running LS (footnote 2: LS timing
//     anomalies). If the high-density tasks exhaust the platform, FAILURE.
//  2. The remaining low-density tasks are partitioned onto the remaining
//     processors by the Baruah–Fisher first-fit algorithm (package
//     partition); each shared processor runs preemptive uniprocessor EDF.
//
// Theorem 1: if an optimal federated scheduler can schedule τ on m speed-x
// processors, FEDCONS schedules τ on m speed-(3 − 1/m)·x processors.
package core

import (
	"errors"
	"fmt"
	"math"

	"fedsched/internal/listsched"
	"fedsched/internal/obs"
	"fedsched/internal/partition"
	"fedsched/internal/task"
)

// Time is re-exported for convenience.
type Time = task.Time

// MinprocsMode selects how the per-task processor count of a high-density
// task is determined.
type MinprocsMode int

const (
	// LSScan is the paper's Fig. 3: try μ = ⌈δ_i⌉, ⌈δ_i⌉+1, …, m_r and
	// return the first μ for which the LS makespan is ≤ D_i. A linear scan
	// is required because LS makespan is not monotone in μ (Graham
	// anomalies); see the E9 experiment.
	LSScan MinprocsMode = iota
	// Analytic uses the closed form μ = ⌈(vol−len)/(D−len)⌉ derived from
	// Graham's bound (the constrained-deadline analogue of the Li et al.
	// assignment). Never smaller-capacity than needed, but may allocate
	// more processors than LSScan finds necessary — the E7 ablation.
	Analytic
)

// String names the mode.
func (m MinprocsMode) String() string {
	switch m {
	case LSScan:
		return "ls-scan"
	case Analytic:
		return "analytic"
	default:
		return fmt.Sprintf("MinprocsMode(%d)", int(m))
	}
}

// Options configures FEDCONS. The zero value is the paper's algorithm:
// MINPROCS by LS scan with insertion-order lists, first-fit DBF* partition.
type Options struct {
	// Minprocs selects the phase-1 sizing rule.
	Minprocs MinprocsMode
	// Priority is the LS list order (nil = insertion order).
	Priority listsched.Priority
	// Partition configures the phase-2 partitioner.
	Partition partition.Options
	// Trace, when non-nil, records the complete decision trace of a
	// Schedule call: per-task density classification, every μ candidate
	// MINPROCS tried with its LS makespan against the Lemma-1 bound, and
	// every Phase-2 fit probe with its DBF* inequality. The nil default
	// (obs.Noop) costs only pointer tests — the overhead guard in
	// trace_test.go pins that it allocates nothing extra.
	Trace *obs.Recorder
	// Par bounds the Phase-1 worker pool: when > 1, the MINPROCS list-
	// scheduling scans of the high-density tasks are precomputed across
	// min(Par, #high-density) goroutines before the (sequential) merge loop
	// runs. Because listsched.Run is a pure function of (G, μ, priority),
	// precomputing it never changes what the merge loop observes, so every
	// output — verdict, allocation, decision trace — is byte-identical at
	// any Par value; the differential matrix in parallel_test.go pins this.
	// 0 and 1 both mean fully sequential; negative values are rejected.
	Par int
	// Policy selects the admission strategy: "" (or "fedcons") runs the
	// paper's strict algorithm above; any other value must name a policy
	// registered with RegisterPolicy (e.g. "semi", "reservation", "typed"),
	// and Schedule dispatches to it. The strict path never consults the
	// registry, so the default output cannot be perturbed by registration.
	Policy string
	// MTypes gives the per-type processor budgets of a heterogeneous
	// platform (MTypes[s] processors of type s, Σ MTypes = m) for the
	// "typed" policy. Empty means all m processors are the default type 0;
	// policies other than "typed" ignore it.
	MTypes []int
}

// HighAssignment is the phase-1 outcome for one high-density task.
type HighAssignment struct {
	// TaskIndex is the index of the task in the input system.
	TaskIndex int
	// Procs are the global processor ids granted exclusively to the task.
	Procs []int
	// Template is the schedule σ_i of one dag-job on len(Procs) processors;
	// Template processor p corresponds to global processor Procs[p].
	Template *listsched.Schedule
}

// Allocation is a successful FEDCONS run: a complete static mapping of the
// task system onto the platform.
type Allocation struct {
	// M is the platform size.
	M int
	// High holds one entry per high-density task, in input order.
	High []HighAssignment
	// SharedProcs are the global ids of the processors left to phase 2.
	SharedProcs []int
	// LowIndices are the input indices of the low-density tasks, in input
	// order; Low partition entries refer to positions in this slice.
	LowIndices []int
	// Low is the partition over SharedProcs: Low.Assignment[k] lists
	// positions placed on SharedProcs[k]. For the strict shape positions
	// index LowIndices; for a split shape (Policy non-empty) positions
	// < len(Servers) are servers and later positions index
	// LowIndices[pos−len(Servers)] (see PartitionSystem).
	Low *partition.Result

	// Policy tags the allocation's shape: "" is the strict FEDCONS shape
	// above; "semi" or "reservation" mark a split shape whose high-density
	// tasks are served by dedicated processors plus the reservation servers
	// in Servers. Verify dispatches on this tag. omitempty keeps the strict
	// JSON encoding byte-identical to the pre-policy format.
	Policy string `json:",omitempty"`
	// Servers are the reservation servers of a split-shape allocation,
	// placed by the Phase-2 partitioner ahead of the low-density tasks.
	Servers []ServerSpec `json:",omitempty"`
	// MTypes records the per-type processor budgets of a typed-shape
	// allocation (Policy "typed"): type s owns the global processor ids
	// [Σ_{t<s} MTypes[t], Σ_{t≤s} MTypes[t]). omitempty keeps every other
	// shape's JSON byte-identical to the pre-typed format.
	MTypes []int `json:",omitempty"`
}

// TasksOnShared returns the input-system indices assigned to shared
// processor k (an index into SharedProcs). On a split-shape allocation a
// server position maps to its owner's input index, so a high-density task
// appears once per server it has on the processor.
func (a *Allocation) TasksOnShared(k int) []int {
	out := make([]int, 0, len(a.Low.Assignment[k]))
	for _, pos := range a.Low.Assignment[k] {
		if pos < len(a.Servers) {
			out = append(out, a.Servers[pos].TaskIndex)
			continue
		}
		out = append(out, a.LowIndices[pos-len(a.Servers)])
	}
	return out
}

// ProcessorsUsed returns how many processors are dedicated to high-density
// tasks and how many are shared.
func (a *Allocation) ProcessorsUsed() (dedicated, shared int) {
	for _, h := range a.High {
		dedicated += len(h.Procs)
	}
	return dedicated, len(a.SharedProcs)
}

// FailurePhase identifies where FEDCONS gave up.
type FailurePhase int

const (
	// PhaseHighDensity: MINPROCS needed more processors than remained
	// (Fig. 2 line 4), or a high-density task cannot meet its deadline on
	// any number of processors (len_i > D_i).
	PhaseHighDensity FailurePhase = iota
	// PhaseLowDensity: PARTITION returned FAILURE (Fig. 2 line 7).
	PhaseLowDensity
)

// String names the phase.
func (p FailurePhase) String() string {
	switch p {
	case PhaseHighDensity:
		return "high-density"
	case PhaseLowDensity:
		return "low-density"
	default:
		return fmt.Sprintf("FailurePhase(%d)", int(p))
	}
}

// FailureError reports an unschedulable verdict with its cause.
type FailureError struct {
	Phase     FailurePhase
	TaskIndex int    // input index of the task that could not be placed
	TaskName  string // its name
	Remaining int    // processors remaining when the failure occurred
	Err       error  // underlying error (phase 2 only)
}

func (e *FailureError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("fedcons: FAILURE in %v phase: task %d (%q), %d processors remaining: %v",
			e.Phase, e.TaskIndex, e.TaskName, e.Remaining, e.Err)
	}
	return fmt.Sprintf("fedcons: FAILURE in %v phase: task %d (%q) needs more than the %d remaining processors",
		e.Phase, e.TaskIndex, e.TaskName, e.Remaining)
}

// Unwrap exposes the phase-2 cause.
func (e *FailureError) Unwrap() error { return e.Err }

// window returns the scheduling window of a dag-job on dedicated
// processors: min(D_i, T_i). For the paper's constrained-deadline setting
// this is simply D_i; using the min additionally makes the first phase
// sound for arbitrary-deadline tasks (D_i > T_i), where the template must
// also vacate the processor group before the next dag-job can arrive —
// the conservative handling of the extension the paper poses as future
// work (Section V).
func window(tk *task.DAGTask) Time {
	if tk.T < tk.D {
		return tk.T
	}
	return tk.D
}

// lsRunner produces the LS schedule of one task's DAG on mu processors. The
// sequential path runs listsched.Run live; the parallel engine substitutes a
// memo populated by the Phase-1 worker pool (see phase1Prefetch). Since
// listsched.Run is a pure deterministic function of (G, mu, priority), the
// substitution is observationally invisible.
type lsRunner func(mu int) (*listsched.Schedule, error)

// liveRunner is the default lsRunner: run list scheduling on demand.
func liveRunner(tk *task.DAGTask, prio listsched.Priority) lsRunner {
	return func(mu int) (*listsched.Schedule, error) {
		return listsched.Run(tk.G, mu, prio)
	}
}

// scanStart returns the first μ candidate of the Fig. 3 scan: max(⌈δ_i⌉, 1).
func scanStart(tk *task.DAGTask) int {
	start := ceilDensity(tk)
	if start < 1 {
		start = 1
	}
	return start
}

// Minprocs implements procedure MINPROCS(τ_i, m_r) of Fig. 3: the smallest
// μ ∈ [⌈δ_i⌉, mr] for which LS schedules G_i with makespan ≤ min(D_i, T_i),
// together with the witness schedule. For constrained deadlines the bound is
// exactly the paper's D_i; see window for the arbitrary-deadline case. ok is
// false when no such μ exists (the paper's ∞ return). prio selects the LS
// list order (nil = insertion order).
func Minprocs(tk *task.DAGTask, mr int, prio listsched.Priority) (mu int, tmpl *listsched.Schedule, ok bool) {
	return MinprocsTrace(tk, mr, prio, nil)
}

// MinprocsTrace is Minprocs with an optional decision-trace span: when sp is
// non-nil it records the scan window (scan_start, width, limit, remaining)
// and one "mu" child per candidate tried, carrying the LS makespan and the
// Lemma-1 bound len + (vol − len)/μ. A nil sp skips every trace computation.
func MinprocsTrace(tk *task.DAGTask, mr int, prio listsched.Priority, sp *obs.Span) (mu int, tmpl *listsched.Schedule, ok bool) {
	return minprocsTrace(tk, mr, sp, liveRunner(tk, prio))
}

// minprocsTrace is the scan body behind MinprocsTrace, with list scheduling
// abstracted behind ls so the parallel engine can replay precomputed runs.
func minprocsTrace(tk *task.DAGTask, mr int, sp *obs.Span, ls lsRunner) (mu int, tmpl *listsched.Schedule, ok bool) {
	d := window(tk)
	if tk.Len() > d {
		sp.Str("reason", "critical-path-exceeds-window")
		return 0, nil, false // no processor count can beat the critical path
	}
	start := scanStart(tk)
	// Any set of simultaneously-running jobs is an antichain of G, so on
	// Width(G) processors a work-conserving scheduler never delays an
	// available job and the LS makespan equals len(G) ≤ d exactly. Scanning
	// past the width is therefore pointless: cap the scan there (and since
	// len ≤ d, the scan is guaranteed to succeed by μ = width if the budget
	// allows it).
	limit := mr
	if w := tk.G.Width(); w < limit {
		limit = w
	}
	if sp != nil {
		sp.Int("scan_start", int64(start)).Int("width", int64(tk.G.Width())).
			Int("limit", int64(limit)).Int("remaining", int64(mr))
	}
	for mu = start; mu <= limit; mu++ {
		s, err := ls(mu)
		if err != nil {
			return 0, nil, false
		}
		if sp != nil {
			sp.Child("mu").Int("mu", int64(mu)).Int("makespan", int64(s.Makespan)).
				Float("lemma1_bound", listsched.GrahamBound(tk.G, mu)).
				Bool("ok", s.Makespan <= d).Finish()
		}
		if s.Makespan <= d {
			return mu, s, true
		}
	}
	sp.Str("reason", "scan-exhausted")
	return 0, nil, false
}

// MinprocsAnalytic sizes a high-density task by Graham's bound instead of
// searching: the smallest μ with len + (vol − len)/μ ≤ D (where D is the
// min(D_i, T_i) window), i.e. μ = ⌈(vol − len)/(D − len)⌉ (and 1 when
// vol ≤ D). The witness schedule is still built with LS, whose bound
// guarantees the deadline. ok is false when len_i > D, or len_i == D with
// parallel slack remaining, or μ exceeds mr.
func MinprocsAnalytic(tk *task.DAGTask, mr int, prio listsched.Priority) (mu int, tmpl *listsched.Schedule, ok bool) {
	return MinprocsAnalyticTrace(tk, mr, prio, nil)
}

// MinprocsAnalyticTrace is MinprocsAnalytic with an optional decision-trace
// span; the single closed-form candidate is recorded as one "mu" child,
// mirroring the LS-scan trace shape.
func MinprocsAnalyticTrace(tk *task.DAGTask, mr int, prio listsched.Priority, sp *obs.Span) (mu int, tmpl *listsched.Schedule, ok bool) {
	return minprocsAnalyticTrace(tk, mr, sp, liveRunner(tk, prio))
}

// analyticMu returns the closed-form Graham-bound processor count for tk, or
// an infeasibility reason (the span attribute value MinprocsAnalyticTrace
// records) when the bound cannot certify any count.
func analyticMu(tk *task.DAGTask) (mu int, reason string) {
	vol, l, d := tk.Volume(), tk.Len(), window(tk)
	switch {
	case l > d:
		return 0, "critical-path-exceeds-window"
	case vol <= d:
		mu = 1
	case l == d:
		return 0, "no-slack-for-graham-bound" // bound needs (vol−len)/(D−len) with D > len
	default:
		mu = int((vol - l + (d - l) - 1) / (d - l))
	}
	if mu < 1 {
		mu = 1
	}
	return mu, ""
}

// minprocsAnalyticTrace is the body behind MinprocsAnalyticTrace, with list
// scheduling abstracted behind ls (see minprocsTrace).
func minprocsAnalyticTrace(tk *task.DAGTask, mr int, sp *obs.Span, ls lsRunner) (mu int, tmpl *listsched.Schedule, ok bool) {
	mu, reason := analyticMu(tk)
	if reason != "" {
		sp.Str("reason", reason)
		return 0, nil, false
	}
	d := window(tk)
	if sp != nil {
		sp.Int("remaining", int64(mr))
	}
	if mu > mr {
		sp.Str("reason", "analytic-mu-exceeds-remaining")
		return 0, nil, false
	}
	s, err := ls(mu)
	if err != nil || s.Makespan > d {
		// Graham's bound makes the deadline certain; reaching here would
		// mean a bug in LS, so surface it as infeasible rather than panic.
		return 0, nil, false
	}
	if sp != nil {
		sp.Child("mu").Int("mu", int64(mu)).Int("makespan", int64(s.Makespan)).
			Float("lemma1_bound", listsched.GrahamBound(tk.G, mu)).
			Bool("ok", true).Finish()
	}
	return mu, s, true
}

// ceilDensity returns ⌈δ_i⌉ = ⌈vol / min(D,T)⌉ in exact integer arithmetic.
func ceilDensity(tk *task.DAGTask) int {
	den := window(tk)
	return int((tk.Volume() + den - 1) / den)
}

// Phase1Result is the platform-independent outcome of MINPROCS for one
// high-density task: the minimum processor count μ* over an unbounded
// platform and its witness template, or infeasibility at every count.
// Bounding by the processors actually remaining (μ* ≤ m_r) is exactly the
// paper's bounded scan, because the scan visits μ = ⌈δ_i⌉, ⌈δ_i⌉+1, … in an
// order that does not depend on m_r.
type Phase1Result struct {
	Feasible bool
	Mu       int
	Template *listsched.Schedule
}

// Phase1Memo memoizes Phase1Result across ScheduleMemo calls. The outcome
// depends on Options.Minprocs and Options.Priority, so one memo must serve a
// single setting of both. Probe may be called concurrently (by the Phase-1
// worker pool); Lookup and Store are called only from the sequential merge
// loop, in input order.
type Phase1Memo interface {
	// Lookup returns the memoized outcome for tk, counting a hit or a miss.
	Lookup(tk *task.DAGTask) (Phase1Result, bool)
	// Store memoizes the outcome computed for tk after a missed Lookup.
	Store(tk *task.DAGTask, res Phase1Result)
	// Probe reports whether Lookup would hit, without counting.
	Probe(tk *task.DAGTask) bool
}

// minprocsStep is the merge loop's MINPROCS step for one high-density task
// with m_r = mr processors remaining. Without a memo it is the bounded scan
// of the configured rule. With one, a hit replays μ*; a miss runs the scan on
// the task's span over an unbounded platform — the LS scan capped at the DAG
// width, where it succeeds whenever len ≤ min(D,T), or the analytic rule
// with no budget — and stores the outcome. Either way μ* ≤ m_r then decides
// (see Phase1Result).
func minprocsStep(memo Phase1Memo, mode MinprocsMode, tk *task.DAGTask, mr int, sp *obs.Span, ls lsRunner) (int, *listsched.Schedule, bool) {
	scan := minprocsTrace
	if mode == Analytic {
		scan = minprocsAnalyticTrace
	}
	if memo == nil {
		return scan(tk, mr, sp, ls)
	}
	res, hit := memo.Lookup(tk)
	if hit {
		sp.Str("cache", "hit")
	} else {
		unbounded := math.MaxInt
		if mode != Analytic {
			unbounded = tk.G.Width()
		}
		res.Mu, res.Template, res.Feasible = scan(tk, unbounded, sp, ls)
		memo.Store(tk, res)
		sp.Str("cache", "miss")
	}
	if !res.Feasible || res.Mu > mr {
		return 0, nil, false
	}
	return res.Mu, res.Template, true
}

// Schedule runs the configured admission policy on (τ, m): the paper's
// strict FEDCONS when opt.Policy is "" or "fedcons", otherwise the
// registered policy of that name (with the strict scheduler passed as its
// fallback). On success it returns the allocation; on failure, an error —
// a *FailureError describing the phase and task responsible when the strict
// path decided.
func Schedule(sys task.System, m int, opt Options) (*Allocation, error) {
	return ScheduleMemo(sys, m, opt, nil)
}

// ScheduleMemo is Schedule with Phase-1 MINPROCS outcomes drawn from memo
// (nil: none); policies receive the strict scheduler bound to the same memo
// as their fallback. For any memo filled by earlier calls with the same
// Minprocs and Priority it returns exactly what Schedule returns — the memo
// only removes repeated list-scheduling work. With a non-nil memo each
// high-density task span of the decision trace also carries a "cache" attr
// ("hit" or "miss"): a hit replays μ* with no "mu" candidate children, and
// a miss records its scan over the unbounded platform.
func ScheduleMemo(sys task.System, m int, opt Options, memo Phase1Memo) (*Allocation, error) {
	if opt.Policy != "" && opt.Policy != PolicyFedcons {
		p, err := LookupPolicy(opt.Policy)
		if err != nil {
			return nil, err
		}
		return p.Schedule(sys, m, opt, func(sys task.System, m int, opt Options) (*Allocation, error) {
			return scheduleFedcons(sys, m, opt, memo)
		})
	}
	return scheduleFedcons(sys, m, opt, memo)
}

// scheduleFedcons is the strict FEDCONS(τ, m) of Fig. 2 — the body behind
// ScheduleMemo's default dispatch and the fallback handed to policies.
func scheduleFedcons(sys task.System, m int, opt Options, memo Phase1Memo) (*Allocation, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	if m < 1 {
		return nil, fmt.Errorf("fedcons: m must be ≥ 1, got %d", m)
	}
	if opt.Par < 0 {
		return nil, fmt.Errorf("fedcons: par must be ≥ 0, got %d", opt.Par)
	}

	alloc := &Allocation{M: m}
	nextProc := 0 // processors [0, nextProc) are spoken for
	mr := m       // m_r: remaining processors (Fig. 2 line 1)

	// With Par > 1 the expensive LS scans of Phase 1 are precomputed on a
	// worker pool; the merge loop below then replays them from the memo in
	// canonical (input) order, so every decision — and every trace byte —
	// is made by exactly the same code as the sequential path.
	memos := phase1Prefetch(sys, opt, memo)
	runnerFor := func(i int, tk *task.DAGTask) lsRunner {
		if memos != nil && memos[i] != nil {
			return memos[i]
		}
		return liveRunner(tk, opt.Priority)
	}

	root := opt.Trace.Start("fedcons")
	if root != nil {
		root.Int("m", int64(m)).Int("tasks", int64(len(sys))).
			Str("minprocs", opt.Minprocs.String())
	}

	// Phase 1: size and place each high-density task (Fig. 2 lines 2–6).
	phase1 := root.Child("phase1")
	var low task.System
	for i, tk := range sys {
		var tsp *obs.Span
		if phase1 != nil {
			vol, l, d := tk.Volume(), tk.Len(), window(tk)
			tsp = phase1.Child("task").Str("task", tk.Name).Int("index", int64(i)).
				Int("vol", int64(vol)).Int("len", int64(l)).Int("window", int64(d)).
				Float("density", float64(vol)/float64(d)).Bool("high", tk.HighDensity())
		}
		if !tk.HighDensity() {
			tsp.Finish()
			low = append(low, tk)
			alloc.LowIndices = append(alloc.LowIndices, i)
			continue
		}
		mi, tmpl, ok := minprocsStep(memo, opt.Minprocs, tk, mr, tsp, runnerFor(i, tk))
		if !ok {
			tsp.Bool("failed", true).Finish()
			phase1.Finish()
			root.Bool("schedulable", false).Str("phase", PhaseHighDensity.String()).Finish()
			return nil, &FailureError{Phase: PhaseHighDensity, TaskIndex: i, TaskName: tk.Name, Remaining: mr}
		}
		tsp.Int("mu", int64(mi)).Finish()
		procs := make([]int, mi)
		for p := range procs {
			procs[p] = nextProc
			nextProc++
		}
		alloc.High = append(alloc.High, HighAssignment{TaskIndex: i, Procs: procs, Template: tmpl})
		mr -= mi
	}
	phase1.Int("dedicated", int64(nextProc)).Int("remaining", int64(mr)).Finish()

	// Phase 2: partition the low-density tasks (Fig. 2 line 7).
	for p := 0; p < mr; p++ {
		alloc.SharedProcs = append(alloc.SharedProcs, nextProc+p)
	}
	phase2 := root.Child("phase2")
	if phase2 != nil {
		phase2.Int("procs", int64(mr)).Int("low", int64(len(low))).
			Str("heuristic", opt.Partition.Heuristic.String()).
			Str("test", opt.Partition.Test.String())
	}
	popt := opt.Partition
	popt.Trace = phase2
	res, err := partition.Partition(low, mr, popt)
	if err != nil {
		fe := &FailureError{Phase: PhaseLowDensity, Remaining: mr, Err: err}
		var pf *partition.FailureError
		if errors.As(err, &pf) {
			fe.TaskIndex = alloc.LowIndices[pf.TaskIndex]
			fe.TaskName = pf.TaskName
		}
		phase2.Bool("failed", true).Finish()
		root.Bool("schedulable", false).Str("phase", PhaseLowDensity.String()).Finish()
		return nil, fe
	}
	phase2.Finish()
	root.Bool("schedulable", true).Finish()
	alloc.Low = res
	return alloc, nil
}

// Schedulable is the boolean view of Schedule, for experiment harnesses.
func Schedulable(sys task.System, m int, opt Options) bool {
	_, err := Schedule(sys, m, opt)
	return err == nil
}
