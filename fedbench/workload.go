package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"fedsched/internal/core"
	"fedsched/internal/gen"
	"fedsched/internal/service"
	"fedsched/internal/task"
)

// shape is a distribution of generated DAG tasks.
type shape struct {
	minV, maxV       int
	edgeProb         float64
	uMin, uMax       float64 // per-task utilization drawn uniformly
	betaMin, betaMax float64 // deadline tightness, see gen.Params
	high             bool    // high-density (Phase 1) or low-density (Phase 2)
}

var (
	// smallLow is the warm path's diet: small low-density DAGs.
	smallLow = shape{minV: 10, maxV: 30, edgeProb: 0.1, uMin: 0.02, uMax: 0.2, betaMin: 0.3, betaMax: 1}
	// baseHigh gives the base systems a Phase-1 component.
	baseHigh = shape{minV: 20, maxV: 40, edgeProb: 0.1, uMin: 1, uMax: 2.5, betaMin: 0.2, betaMax: 0.6, high: true}
	// bigHigh is cold-admit's diet: large DAGs with tight deadlines, so
	// MINPROCS scans several processor counts.
	bigHigh = shape{minV: 100, maxV: 250, edgeProb: 0.05, uMin: 1.5, uMax: 4, betaMin: 0.05, betaMax: 0.3, high: true}
)

// spec describes one daemon workload.
type spec struct {
	name string
	// baseHigh and baseLow size the base system installed before timing.
	baseHigh, baseLow int
	stream            shape
	// live is how many stream tasks one client keeps installed: a client
	// removes its oldest task once it holds this many, else it admits.
	live int
	// fit sizes the platform: the fit-quantile, over calibration draws, of
	// the smallest platform accepting the base plus live stream tasks. About
	// a share fit of admits into a full live set is then accepted.
	fit float64
	// mutRate and readRate are the open-loop arrival rates (per second).
	mutRate, readRate float64
	// pool is the number of distinct stream DAGs generated up front.
	pool int
	// fresh means every admit must carry DAG content never sent before, so
	// the closed loop stops early rather than reuse the pool.
	fresh bool
	// durable runs the daemon with -wal-dir on a store written beforehand.
	durable bool
}

// nullRate is the open-loop rate of null-server round trips in every
// workload (per second).
const nullRate = 100

var specs = []spec{
	{
		name: "warm-churn", baseHigh: 4, baseLow: 46, stream: smallLow,
		live: 8, fit: 0.5, mutRate: 140, readRate: 70, pool: 4096,
	},
	{
		name: "cold-admit", baseHigh: 2, baseLow: 10, stream: bigHigh,
		live: 2, fit: 0.8, mutRate: 100, readRate: 50, pool: 4000, fresh: true,
	},
	{
		name: "durable-churn", baseHigh: 4, baseLow: 46, stream: smallLow,
		live: 8, fit: 0.5, mutRate: 120, readRate: 50, pool: 4096, durable: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs are everything a run sends, generated from the seed before any
// timing starts.
type inputs struct {
	m          int
	opt        core.Options
	base       task.System
	baseBodies [][]byte // complete admit bodies for the base system
	// pool holds stream task bodies without a name: an admit body is
	// `{"name":"<name>",` followed by pool[i][1:].
	pool  [][]byte
	final []*task.DAGTask // admitted one by one after the timed phases
}

// daemonOptions are the analysis options fedschedd runs with by default.
func daemonOptions() (core.Options, error) {
	opt, err := service.ParseOptions("ls-scan", "insertion", "first-fit", "dbf-approx")
	if err != nil {
		return opt, err
	}
	opt.Par = runtime.GOMAXPROCS(0)
	opt.Policy, err = service.ParsePolicy("fedcons")
	return opt, err
}

// genTask draws one task of the given shape.
func genTask(r *rand.Rand, sh shape) (*task.DAGTask, error) {
	p := gen.DefaultParams(1, 1)
	p.MinVerts, p.MaxVerts, p.EdgeProb = sh.minV, sh.maxV, sh.edgeProb
	p.BetaMin, p.BetaMax = sh.betaMin, sh.betaMax
	for try := 0; try < 1000; try++ {
		g := gen.Graph(r, p)
		u := sh.uMin + r.Float64()*(sh.uMax-sh.uMin)
		tk, err := gen.TaskFor(r, g, u, p)
		if err != nil || tk.HighDensity() != sh.high {
			continue
		}
		return tk, nil
	}
	return nil, fmt.Errorf("no task of shape %+v after 1000 draws", sh)
}

// admitBody splices a task name into a nameless pool body.
func admitBody(name string, tail []byte) []byte {
	b := make([]byte, 0, len(name)+len(tail)+12)
	b = append(b, `{"name":"`...)
	b = append(b, name...)
	b = append(b, `",`...)
	return append(b, tail[1:]...)
}

// baseSeed draws every workload's base system. The installed system and
// the platform calibrated to it are part of a workload's definition, so
// that runs with different seeds measure the same deployment; -seed draws
// what is sent to it.
const baseSeed = 2015

// makeInputs generates a workload's inputs. Each part draws from its own
// seeded stream, so resizing one part leaves the others unchanged.
func makeInputs(sp spec, seed int64) (*inputs, error) {
	opt, err := daemonOptions()
	if err != nil {
		return nil, err
	}
	in := &inputs{opt: opt}
	rb := rand.New(rand.NewSource(baseSeed))
	n := sp.baseHigh + sp.baseLow
	for i := 0; i < n; i++ {
		sh := smallLow
		if sp.baseHigh > 0 && i%(n/sp.baseHigh) == 0 && i/(n/sp.baseHigh) < sp.baseHigh {
			sh = baseHigh // spread the high-density tasks through the base order
		}
		tk, err := genTask(rb, sh)
		if err != nil {
			return nil, err
		}
		tk.Name = fmt.Sprintf("base-%02d", i)
		in.base = append(in.base, tk)
		body, err := json.Marshal(tk)
		if err != nil {
			return nil, err
		}
		in.baseBodies = append(in.baseBodies, body)
	}

	// The platform is calibrated on stream tasks drawn from the base seed
	// too; the timed stream comes from -seed.
	if in.m, err = calibratePlatform(in.base, sp, opt); err != nil {
		return nil, err
	}
	rp := rand.New(rand.NewSource(seed*1009 + 2))
	for i := 0; i < sp.pool; i++ {
		tk, err := genTask(rp, sp.stream)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(tk) // nameless: `{"deadline":…`
		if err != nil {
			return nil, err
		}
		in.pool = append(in.pool, body)
	}
	rf := rand.New(rand.NewSource(seed*1009 + 3))
	for i := 0; i < 8; i++ {
		tk, err := genTask(rf, sp.stream)
		if err != nil {
			return nil, err
		}
		tk.Name = fmt.Sprintf("final-%d", i)
		in.final = append(in.final, tk)
	}
	return in, nil
}

// calibrationDraws is the number of base-plus-stream systems the platform
// size is calibrated on.
const calibrationDraws = 10

// calibratePlatform returns the sp.fit-quantile of the smallest platforms on
// which FEDCONS accepts the base plus sp.live stream tasks, over
// calibrationDraws draws; never less than the base system needs.
func calibratePlatform(base task.System, sp spec, opt core.Options) (int, error) {
	mBase, err := minPlatform(base, 1, opt)
	if err != nil {
		return 0, err
	}
	r := rand.New(rand.NewSource(baseSeed + 1))
	var ms []float64
	for k := 0; k < calibrationDraws; k++ {
		sys := base.Clone()
		for i := 0; i < sp.live; i++ {
			tk, err := genTask(r, sp.stream)
			if err != nil {
				return 0, err
			}
			tk.Name = fmt.Sprintf("calib-%d", i)
			sys = append(sys, tk)
		}
		m, err := minPlatform(sys, mBase, opt)
		if err != nil {
			return 0, err
		}
		ms = append(ms, float64(m))
	}
	sort.Float64s(ms)
	return int(quantile(ms, int(sp.fit*1000))), nil
}

// minPlatform is the smallest platform, from `from` up, on which FEDCONS
// accepts sys.
func minPlatform(sys task.System, from int, opt core.Options) (int, error) {
	for m := from; m <= 512; m++ {
		if _, err := core.Schedule(sys, m, opt); err == nil {
			return m, nil
		}
	}
	return 0, fmt.Errorf("system not schedulable on 512 processors")
}
