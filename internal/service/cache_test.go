package service

import (
	"math/rand"
	"reflect"
	"testing"

	"fedsched/internal/core"
	"fedsched/internal/dag"
	"fedsched/internal/gen"
	"fedsched/internal/listsched"
	"fedsched/internal/partition"
	"fedsched/internal/task"
)

// genSystem draws a mixed-density system for differential testing.
func genSystem(t testing.TB, seed int64, tasks int, totalU float64) task.System {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := gen.DefaultParams(tasks, totalU)
	p.MinVerts, p.MaxVerts = 5, 20
	p.BetaMin, p.BetaMax = 0.2, 1.0
	sys, err := gen.System(r, p)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestIncrementalMatchesBatch pins the central equivalence: for any system,
// platform and option set, core.ScheduleMemo with the cache as its memo
// returns exactly what core.Schedule returns — identical allocations
// (numbering, templates) or identical failure diagnoses — on both first
// (cold) and second (warm) runs, with the Phase-1 worker pool on and off.
func TestIncrementalMatchesBatch(t *testing.T) {
	opts := []core.Options{
		{},
		{Minprocs: core.Analytic},
		{Priority: listsched.LongestPathFirst},
		{Partition: partition.Options{Heuristic: partition.BestFit, Test: partition.ExactEDF}},
		{Par: 4},
	}
	for seed := int64(1); seed <= 20; seed++ {
		sys := genSystem(t, seed, 2+int(seed%6), 0.5+float64(seed%5))
		for _, opt := range opts {
			cache := NewAnalysisCache()
			for m := 1; m <= 10; m += 3 {
				want, wantErr := core.Schedule(sys, m, opt)
				for pass := 0; pass < 2; pass++ { // cold, then warm
					got, gotErr := core.ScheduleMemo(sys, m, opt, cache)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("seed %d m=%d pass %d: batch err %v, incremental err %v", seed, m, pass, wantErr, gotErr)
					}
					if wantErr != nil {
						if wantErr.Error() != gotErr.Error() {
							t.Fatalf("seed %d m=%d pass %d: diagnoses differ:\nbatch:       %v\nincremental: %v", seed, m, pass, wantErr, gotErr)
						}
						continue
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("seed %d m=%d pass %d: allocations differ\nbatch:       %+v\nincremental: %+v", seed, m, pass, want, got)
					}
					if err := core.Verify(sys, m, got); err != nil {
						t.Fatalf("seed %d m=%d: incremental allocation failed audit: %v", seed, m, err)
					}
				}
			}
			if hits, _ := cache.Stats(); sys.Summarize().HighDensity > 0 && hits == 0 {
				t.Errorf("seed %d: repeated analyses never hit the cache", seed)
			}
		}
	}
}

// TestCacheSharesAcrossIdenticalContent checks that two same-structure tasks
// with different names share one memo entry, while a relabeled isomorph gets
// its own chained entry (content equality guards the hash).
func TestCacheSharesAcrossIdenticalContent(t *testing.T) {
	mk := func(name string) *task.DAGTask {
		return task.MustNew(name, independent(4, 5), 10, 10) // δ = 2: high-density
	}
	cache := NewAnalysisCache()
	sys := task.System{mk("a"), mk("b")}
	if _, err := cache.Schedule(sys, 8, core.Options{}); err != nil {
		t.Fatal(err)
	}
	hits, misses := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("want 1 hit, 1 miss for twin tasks; got %d hits, %d misses", hits, misses)
	}
	if cache.Len() != 1 {
		t.Fatalf("want a single shared entry, got %d", cache.Len())
	}
}

// independent returns k parallel jobs of WCET w.
func independent(k int, w task.Time) *dag.DAG {
	wcets := make([]task.Time, k)
	for i := range wcets {
		wcets[i] = w
	}
	return dag.Independent(wcets...)
}
