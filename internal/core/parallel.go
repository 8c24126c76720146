package core

import (
	"runtime"
	"sync"

	"fedsched/internal/listsched"
	"fedsched/internal/task"
)

// Phase-1 parallel prefetch.
//
// MINPROCS analyses of distinct high-density tasks are independent: each is a
// pure function of one task's DAG and the LS priority. What couples them in
// Fig. 2 is only the m_r bookkeeping — how many processors remain when task i
// is sized — which affects where the scan is cut off, never which schedule a
// given μ produces. The engine therefore splits the work:
//
//  1. Workers run the μ scan of every high-density task concurrently with an
//     unbounded budget (the scan self-caps at the DAG width, where success is
//     guaranteed whenever len ≤ min(D,T)), memoizing each listsched.Run
//     result by μ.
//  2. The ordinary sequential merge loop in Schedule re-runs the exact Fig. 2
//     logic — including the m_r-bounded cutoff and every decision-trace span
//     — but draws LS schedules from the memo instead of recomputing them.
//
// Determinism argument: the merge loop is the same code as the sequential
// path; the only substitution is listsched.Run ↦ memo lookup, and
// listsched.Run is a pure deterministic function of (G, μ, priority), so the
// lookup returns the identical *Schedule the live call would have built. Any
// μ the memo does not cover (possible only if the merge loop's bounded scan
// diverges from the prefetch scan, which the fallback makes harmless rather
// than fatal) is recomputed live with the same pure function. Output is
// therefore byte-identical at every Par value — including `-trace` JSONL and
// `-explain` text — which parallel_test.go pins across a seed × worker-count
// matrix. Graham anomalies make this the only safe construction: reordering
// or re-cutting the scans themselves could change which μ wins.
//
// The speculative cost: a task whose scan the sequential path would have cut
// at m_r < width may be scanned further (its excess candidates are simply
// never replayed), and tasks after a Phase-1 failure are scanned even though
// the merge loop stops at the failure. Both waste only wall-clock on
// otherwise-idle cores, never change results.
//
// With a Phase1Memo each worker first probes the memo (hashing in parallel,
// for a content-keyed memo) and scans only on a miss, so a fully warm pass
// runs no list scheduling. Hits and misses are counted only by the merge
// loop's Lookup, in input order, so the totals equal the sequential ones at
// every Par even when one system holds two tasks of equal content (both are
// scanned here; the merge loop misses the first and hits the second).

// lsResult memoizes one listsched.Run outcome.
type lsResult struct {
	s   *listsched.Schedule
	err error
}

// phase1Prefetch runs the Phase-1 LS scans of sys's high-density tasks on a
// pool of min(opt.Par, #high-density) workers and returns a per-task-index
// memoized lsRunner (nil entries for low-density tasks and memo hits). It
// returns nil — meaning "run everything live" — when opt.Par ≤ 1 or fewer
// than two tasks are high-density, where a pool could not help.
func phase1Prefetch(sys task.System, opt Options, memo Phase1Memo) []lsRunner {
	if opt.Par <= 1 {
		return nil
	}
	var high []int
	for i, tk := range sys {
		if tk.HighDensity() {
			high = append(high, i)
		}
	}
	if len(high) < 2 {
		return nil
	}
	workers := opt.Par
	if workers > len(high) {
		workers = len(high)
	}
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}

	memos := make([]lsRunner, len(sys))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if memo == nil || !memo.Probe(sys[i]) {
					memos[i] = prefetchTask(sys[i], opt)
				}
			}
		}()
	}
	for _, i := range high {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return memos
}

// prefetchTask precomputes the LS runs the merge loop can request for one
// high-density task and wraps them as a memoized lsRunner with a live
// fallback.
func prefetchTask(tk *task.DAGTask, opt Options) lsRunner {
	memo := map[int]lsResult{}
	record := func(mu int) lsResult {
		s, err := listsched.Run(tk.G, mu, opt.Priority)
		memo[mu] = lsResult{s: s, err: err}
		return memo[mu]
	}
	if opt.Minprocs == Analytic {
		// One closed-form candidate; infeasible tasks need no LS run.
		if mu, reason := analyticMu(tk); reason == "" {
			record(mu)
		}
	} else if d := window(tk); tk.Len() <= d {
		// The Fig. 3 scan, budget-unbounded: it self-caps at the DAG width,
		// where LS achieves makespan len ≤ d, so termination is certain. The
		// merge loop replays a prefix of exactly this candidate sequence.
		for mu, w := scanStart(tk), tk.G.Width(); mu <= w; mu++ {
			r := record(mu)
			if r.err != nil || r.s.Makespan <= d {
				break
			}
		}
	}
	live := liveRunner(tk, opt.Priority)
	return func(mu int) (*listsched.Schedule, error) {
		if r, ok := memo[mu]; ok {
			return r.s, r.err
		}
		return live(mu) // pure function: identical to the memoized path
	}
}
