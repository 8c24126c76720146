package main

import (
	"container/heap"
	"encoding/json"
	"math/rand"
	"sync"
	"time"
)

// The reference workload: fixed CPU work in the benchmark's own code, of the
// same kind as the program's (random DAGs, longest paths, list scheduling,
// JSON). Its rate, measured next to the throughput phases, follows the
// host's speed; capacity and the sweep are gated as ratios to it.

const (
	refV = 60 // vertices per reference DAG
	refM = 4  // processors of its list schedule
)

// refUnit is one unit of reference work on a DAG drawn from r.
func refUnit(r *rand.Rand) int {
	wcet := make([]int, refV)
	succ := make([][]int, refV)
	indeg := make([]int, refV)
	for v := range wcet {
		wcet[v] = 1 + r.Intn(50)
		for u := v + 1; u < refV; u++ {
			if r.Float64() < 0.08 {
				succ[v] = append(succ[v], u)
				indeg[u]++
			}
		}
	}
	// Longest path to each vertex (vertices are in topological order).
	dist := make([]int, refV)
	for v := range dist {
		dist[v] += wcet[v]
		for _, u := range succ[v] {
			if dist[v] > dist[u] {
				dist[u] = dist[v]
			}
		}
	}
	// Graham list schedule: a ready heap by longest path, refM processors.
	type slot struct{ Vertex, Proc, Start int }
	var out []slot
	ready := &intHeap{key: dist}
	for v := range indeg {
		if indeg[v] == 0 {
			heap.Push(ready, v)
		}
	}
	free := make([]int, refM)
	for ready.Len() > 0 {
		v := heap.Pop(ready).(int)
		p := 0
		for q := range free {
			if free[q] < free[p] {
				p = q
			}
		}
		out = append(out, slot{v, p, free[p]})
		free[p] += wcet[v]
		for _, u := range succ[v] {
			if indeg[u]--; indeg[u] == 0 {
				heap.Push(ready, u)
			}
		}
	}
	data, _ := json.Marshal(out)
	return len(data)
}

// intHeap is a max-heap of vertices by key.
type intHeap struct {
	items []int
	key   []int
}

func (h *intHeap) Len() int           { return len(h.items) }
func (h *intHeap) Less(i, j int) bool { return h.key[h.items[i]] > h.key[h.items[j]] }
func (h *intHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *intHeap) Push(x any)         { h.items = append(h.items, x.(int)) }
func (h *intHeap) Pop() any {
	n := len(h.items) - 1
	x := h.items[n]
	h.items = h.items[:n]
	return x
}

// refWindow is the window of the reference workload's rates; its slices
// are short.
const refWindow = 100 * time.Millisecond

// refRates runs reference units on lanes goroutines for dur and returns the
// rates of its refWindow windows.
func refRates(dur time.Duration, lanes int) []float64 {
	per := make([][]time.Time, lanes)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for w := 0; w < lanes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for time.Now().Before(end) {
				refUnit(r)
				per[w] = append(per[w], time.Now())
			}
		}(w)
	}
	wg.Wait()
	var done []time.Time
	for _, p := range per {
		done = append(done, p...)
	}
	return windowRates(done, start, time.Since(start), refWindow)
}
