// Package service implements the fedschedd online admission-control daemon:
// a long-running HTTP server that holds a live constrained-deadline DAG task
// system and answers trial-admission requests with the full two-phase
// FEDCONS test. No constant speedup or capacity-augmentation bound exists
// for constrained-deadline federated scheduling (paper Example 2), so an
// online admission controller cannot substitute a cheap utilization
// threshold — it must run the real analysis on every request. The package
// therefore makes the real analysis cheap to re-run: AnalysisCache is a
// content-addressed core.Phase1Memo keyed by core.TaskHash, handed to
// core.ScheduleMemo, so admitting or removing one task re-runs list
// scheduling only for DAGs the server has never analyzed before, while the
// cheap Phase-2 partition is always recomputed and every accepted state is
// audited with core.Verify before it is installed. The analysis itself —
// Fig. 2's two phases and the Phase-1 worker pool — lives only in core.
package service

import (
	"sync"

	"fedsched/internal/core"
	"fedsched/internal/task"
)

// cacheEntry pairs a memoized result with the labeled task content it was
// computed from. Lookups compare content with task.SameAnalysisInput, so a
// hash collision (SHA or a residual canonicalization tie between isomorphic
// relabelings) degrades to a chained miss, never to a wrong answer.
type cacheEntry struct {
	tk  *task.DAGTask
	res core.Phase1Result
}

// AnalysisCache is the content-addressed memo of Phase-1 analyses. It is
// safe for concurrent use; in the daemon all writes come from the single
// admission loop while reads may come from anywhere.
type AnalysisCache struct {
	mu      sync.Mutex
	entries map[core.Hash][]cacheEntry
	// hashes memoizes core.TaskHash per task object: the daemon re-analyzes
	// the same installed *DAGTask pointers on every admission, and canonical
	// hashing (WL refinement) is the dominant cost of a fully warm pass.
	// DAGTask contents are immutable by repo convention, so identity keying
	// is sound.
	hashes map[*task.DAGTask]core.Hash
	hits   int64
	misses int64
}

// NewAnalysisCache returns an empty cache.
func NewAnalysisCache() *AnalysisCache {
	return &AnalysisCache{
		entries: make(map[core.Hash][]cacheEntry),
		hashes:  make(map[*task.DAGTask]core.Hash),
	}
}

// Stats returns the cumulative hit and miss counts.
func (c *AnalysisCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of memoized analyses.
func (c *AnalysisCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, chain := range c.entries {
		n += len(chain)
	}
	return n
}

// Schedule is core.ScheduleMemo with c as the Phase-1 memo, for callers
// that hold only a cache.
func (c *AnalysisCache) Schedule(sys task.System, m int, opt core.Options) (*core.Allocation, error) {
	return core.ScheduleMemo(sys, m, opt, c)
}

// Lookup implements core.Phase1Memo: the memoized result for tk, if any,
// counted as a hit or a miss.
func (c *AnalysisCache) Lookup(tk *task.DAGTask) (core.Phase1Result, bool) {
	h := c.hashOf(tk)
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.find(h, tk)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return res, ok
}

// Probe implements core.Phase1Memo: whether Lookup would hit, uncounted.
func (c *AnalysisCache) Probe(tk *task.DAGTask) bool {
	h := c.hashOf(tk)
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.find(h, tk)
	return ok
}

// Store implements core.Phase1Memo: memoize a freshly computed result.
func (c *AnalysisCache) Store(tk *task.DAGTask, res core.Phase1Result) {
	h := c.hashOf(tk)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[h] = append(c.entries[h], cacheEntry{tk: tk, res: res})
}

// find returns the entry chained under h whose content equals tk's. The
// caller holds c.mu.
func (c *AnalysisCache) find(h core.Hash, tk *task.DAGTask) (core.Phase1Result, bool) {
	for _, e := range c.entries[h] {
		if task.SameAnalysisInput(e.tk, tk) {
			return e.res, true
		}
	}
	return core.Phase1Result{}, false
}

// hashOf returns core.TaskHash(tk), memoized by task identity.
func (c *AnalysisCache) hashOf(tk *task.DAGTask) core.Hash {
	c.mu.Lock()
	h, ok := c.hashes[tk]
	c.mu.Unlock()
	if ok {
		return h
	}
	h = core.TaskHash(tk) // outside the lock: hashing large DAGs is the slow part
	c.mu.Lock()
	c.hashes[tk] = h
	c.mu.Unlock()
	return h
}
