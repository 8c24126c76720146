package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fedsched/internal/core"
	"fedsched/internal/gen"
	"fedsched/internal/sim"
	"fedsched/internal/task"
)

// The sweep is the paper's acceptance-ratio experiment run in process: each
// trial generates a system at one U/m point, analyses it with core.Schedule,
// and checks every accepted system with core.Verify and a federated
// simulation that must miss no deadline.
const (
	sweepM       = 8
	sweepN       = 10
	sweepHorizon = 5_000
)

var sweepPoints = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

type sweepResult struct {
	systems, accepted int
	start             time.Time
	elapsed           time.Duration
	done              []time.Time // completion time of every trial
	problems          []string
}

// runSweep runs trials on `workers` goroutines for dur. Worker w draws from
// its own seeded stream and walks the U/m points in order. With a non-nil
// tracer every layer call is a span (one tracer per worker, merged after).
func runSweep(ctx context.Context, seed int64, dur time.Duration, workers int, tr *tracer) sweepResult {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	res := sweepResult{start: start}
	end := start.Add(dur)
	locals := make([]*tracer, workers)
	for w := 0; w < workers; w++ {
		if tr != nil {
			locals[w] = newTracer(1 << 16)
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := locals[w]
			r := rand.New(rand.NewSource(seed*7919 + int64(w)))
			systems, accepted := 0, 0
			var problems []string
			var done []time.Time
			for k := 0; ctx.Err() == nil && time.Now().Before(end); k++ {
				op := w<<32 | k
				ok, err := sweepTrial(r, sweepPoints[k%len(sweepPoints)], seed+int64(op), op, t)
				if err != nil {
					problems = append(problems, err.Error())
					break
				}
				systems++
				done = append(done, time.Now())
				if ok {
					accepted++
				}
			}
			mu.Lock()
			res.systems += systems
			res.accepted += accepted
			res.problems = append(res.problems, problems...)
			res.done = append(res.done, done...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, l := range locals {
		if l != nil {
			tr.merge(l)
		}
	}
	return res
}

// sweepTrial runs one system through gen → core.Schedule → core.Verify →
// sim.Federated. It reports whether FEDCONS accepted the system; an error
// means a correctness check failed.
func sweepTrial(r *rand.Rand, normU float64, simSeed int64, op int, t *tracer) (bool, error) {
	var sysv task.System
	var err error
	t.timed("gen.system", op, -1, func() { sysv, err = gen.System(r, gen.DefaultParams(sweepN, normU*sweepM)) })
	if err != nil {
		return false, fmt.Errorf("sweep: generating a system at U/m=%.1f: %w", normU, err)
	}
	var alloc *core.Allocation
	t.timed("sweep.schedule", op, -1, func() { alloc, err = core.Schedule(sysv, sweepM, core.Options{}) })
	if err != nil {
		return false, nil // rejected: nothing more to check
	}
	t.timed("sweep.verify", op, -1, func() { err = core.Verify(sysv, sweepM, alloc) })
	if err != nil {
		return false, fmt.Errorf("sweep: accepted system at U/m=%.1f fails core.Verify: %w", normU, err)
	}
	var rep *sim.Report
	t.timed("sim.federated", op, -1, func() {
		rep, err = sim.Federated(sysv, alloc, sim.Config{
			Horizon: sweepHorizon, Arrivals: sim.SporadicRandom, Exec: sim.UniformExec, Seed: simSeed,
		})
	})
	if err != nil {
		return false, fmt.Errorf("sweep: simulating an accepted system: %w", err)
	}
	if miss := rep.TotalMissed(); miss > 0 {
		return false, fmt.Errorf("sweep: accepted system at U/m=%.1f missed %d deadlines in simulation", normU, miss)
	}
	return true, nil
}
