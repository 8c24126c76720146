package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"fedsched/internal/obs"
	"fedsched/internal/task"
)

// The warm-path differential harness: a Server with the default incremental
// Phase-2 state must be byte-identical — every response body, every
// allocation encoding, every rejection — to a twin Server running with
// Config.FullRepartition (the pre-PR-7 full re-analysis on every mutation),
// fed the identical request sequence.

// twinServers starts the incremental server and its full-repartition oracle.
func twinServers(t *testing.T, m int) (inc, full *Server) {
	t.Helper()
	inc, err := New(Config{M: m})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inc.Close)
	full, err = New(Config{M: m, FullRepartition: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(full.Close)
	return inc, full
}

// bothAgree runs op against both servers and requires identical status and
// identical (normalized) bytes; it returns the shared status.
func bothAgree(t *testing.T, inc, full *Server, label string, op func(svc *Server) (int, []byte)) int {
	t.Helper()
	s1, b1 := op(inc)
	s2, b2 := op(full)
	if s1 != s2 || !bytes.Equal(normalizeGolden(b1), normalizeGolden(b2)) {
		t.Fatalf("%s diverged:\nincremental: %d %s\nfull:        %d %s", label, s1, b1, s2, b2)
	}
	return s1
}

// requireAllocParity compares the exact /v1/allocation bytes of both servers.
func requireAllocParity(t *testing.T, inc, full *Server, label string) {
	t.Helper()
	_, b1 := allocationBytes(t, inc)
	_, b2 := allocationBytes(t, full)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("%s: allocation bytes diverged:\n--- incremental ---\n%s--- full ---\n%s", label, b1, b2)
	}
}

// TestWarmPathByteIdenticalToFullRepartition drives 20 seeded mixed
// workloads — low/high admits, removals, rejections, an occasional atomic
// batch and traced request — through twin servers and requires byte parity
// on every response and on the installed allocation after every step.
func TestWarmPathByteIdenticalToFullRepartition(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			m := 6 + r.Intn(6)
			inc, full := twinServers(t, m)
			// A pool twice as utilization-heavy as the platform: plenty of
			// accepted admissions and guaranteed rejections.
			pool := genSystem(t, seed+400, 18, float64(m)*1.2)
			live := map[string]bool{}
			ctx := context.Background()
			for step := 0; step < 50; step++ {
				label := fmt.Sprintf("seed %d step %d", seed, step)
				switch {
				case step%17 == 11 && len(live) > 0: // traced admit (falls back)
					tk := pool[r.Intn(len(pool))]
					tid := fmt.Sprintf("%08x-%06d", seed, step)
					status := bothAgree(t, inc, full, label+" traced-admit", func(svc *Server) (int, []byte) {
						s, b := svc.AdmitTrace(ctx, tk, tid, obs.New(obs.DefaultLimits))
						return s, b
					})
					if status == http.StatusOK {
						live[tk.Name] = true
					}
				case step%13 == 7: // atomic batch of two
					a, b := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
					status := bothAgree(t, inc, full, label+" batch", func(svc *Server) (int, []byte) {
						return svc.AdmitBatch(ctx, []*task.DAGTask{a, b})
					})
					if status == http.StatusOK {
						live[a.Name], live[b.Name] = true, true
					}
				case len(live) > 0 && r.Float64() < 0.35: // removal
					var names []string
					for n := range live {
						names = append(names, n)
					}
					name := names[r.Intn(len(names))]
					status := bothAgree(t, inc, full, label+" remove "+name, func(svc *Server) (int, []byte) {
						return svc.Remove(ctx, name)
					})
					if status == http.StatusOK {
						delete(live, name)
					}
				default: // plain (warm-path-eligible) admit
					tk := pool[r.Intn(len(pool))]
					status := bothAgree(t, inc, full, label+" admit "+tk.Name, func(svc *Server) (int, []byte) {
						return svc.Admit(ctx, tk)
					})
					if status == http.StatusOK {
						live[tk.Name] = true
					}
				}
				requireAllocParity(t, inc, full, label)
			}
		})
	}
}

// TestServiceStateRandomWalk is the stateful soak: 500+ admit/remove ops per
// seed through the service layer, every response and allocation byte-compared
// against the full-repartition oracle. make test-race runs it under the
// race detector.
func TestServiceStateRandomWalk(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			const m = 10
			inc, full := twinServers(t, m)
			pool := genSystem(t, seed+900, 30, m*1.4)
			var live []string
			isLive := func(n string) bool {
				for _, l := range live {
					if l == n {
						return true
					}
				}
				return false
			}
			ctx := context.Background()
			for step := 0; step < 520; step++ {
				label := fmt.Sprintf("seed %d step %d", seed, step)
				if len(live) == 0 || r.Float64() < 0.55 {
					tk := pool[r.Intn(len(pool))]
					if isLive(tk.Name) {
						// Duplicate admit: still must agree (409 on both).
						bothAgree(t, inc, full, label+" dup-admit", func(svc *Server) (int, []byte) {
							return svc.Admit(ctx, tk)
						})
						continue
					}
					if bothAgree(t, inc, full, label+" admit", func(svc *Server) (int, []byte) {
						return svc.Admit(ctx, tk)
					}) == http.StatusOK {
						live = append(live, tk.Name)
					}
				} else {
					i := r.Intn(len(live))
					name := live[i]
					if bothAgree(t, inc, full, label+" remove", func(svc *Server) (int, []byte) {
						return svc.Remove(ctx, name)
					}) == http.StatusOK {
						live = append(live[:i], live[i+1:]...)
					}
				}
				if step%25 == 0 {
					requireAllocParity(t, inc, full, label)
				}
			}
			requireAllocParity(t, inc, full, "final")
		})
	}
}

// TestWarmPathActuallyTaken is the white-box guard that the differential
// tests are not vacuous: an untraced low-density admit must mutate the live
// partition.State in place (warm path), while traced requests, high-density
// admits and batches must fall back and rebuild it.
func TestWarmPathActuallyTaken(t *testing.T) {
	svc, err := New(Config{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	if status, body := svc.Admit(ctx, example1Task("seed")); status != http.StatusOK {
		t.Fatalf("seed admit: %d %s", status, body)
	}
	sh := svc.Shard
	if sh.pstate == nil {
		t.Fatal("no partition state after first install")
	}

	st0 := sh.pstate
	if status, _ := svc.Admit(ctx, example1Task("low")); status != http.StatusOK {
		t.Fatal("low admit failed")
	}
	if sh.pstate != st0 {
		t.Error("untraced low-density admit rebuilt the state: warm path not taken")
	}
	if status, _ := svc.Remove(ctx, "low"); status != http.StatusOK {
		t.Fatal("low remove failed")
	}
	if sh.pstate != st0 {
		t.Error("untraced low-density removal rebuilt the state: warm path not taken")
	}

	// Traced admit: must fall back (the trace comes from the batch code).
	rec := obs.New(obs.DefaultLimits)
	if status, body := svc.AdmitTrace(ctx, example1Task("traced"), "ffffffff-000001", rec); status != http.StatusOK {
		t.Fatalf("traced admit: %d %s", status, body)
	}
	if sh.pstate == st0 {
		t.Error("traced admit took the warm path; -trace output would bypass the batch code")
	}
	if !bytes.Contains(rec.JSON(obs.ExportOptions{}), []byte(`"fedcons"`)) {
		t.Error("traced fallback recorded no decision trace")
	}

	// High-density admit: changes Phase-1 numbering, must rebuild.
	st1 := sh.pstate
	if status, _ := svc.Admit(ctx, trijob("high")); status != http.StatusOK {
		t.Fatal("high admit failed")
	}
	if sh.pstate == st1 {
		t.Error("high-density admit took the warm path")
	}

	// Warm rejection: fill the remaining shared capacity with warm admits
	// until one is refused. Accepted and rejected warm operations alike must
	// keep mutating the same live state object — a rejection commits nothing.
	st2 := sh.pstate
	rejected := false
	for i := 0; i < 64 && !rejected; i++ {
		switch status, body := svc.Admit(ctx, example1Task(fmt.Sprintf("fill%d", i))); status {
		case http.StatusOK:
		case http.StatusConflict:
			rejected = true
		default:
			t.Fatalf("fill admit %d: %d %s", i, status, body)
		}
	}
	if !rejected {
		t.Fatal("shared capacity never filled; no warm rejection exercised")
	}
	if sh.pstate != st2 {
		t.Error("warm fill admits or the warm rejection rebuilt the state")
	}

	// FullRepartition: the escape hatch really disables the warm path.
	fullSvc, err := New(Config{M: 8, FullRepartition: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fullSvc.Close()
	if status, _ := fullSvc.Admit(ctx, example1Task("a")); status != http.StatusOK {
		t.Fatal("admit failed")
	}
	stf := fullSvc.Shard.pstate
	if status, _ := fullSvc.Admit(ctx, example1Task("b")); status != http.StatusOK {
		t.Fatal("admit failed")
	}
	if fullSvc.Shard.pstate == stf {
		t.Error("FullRepartition server served a mutation from the warm path")
	}
}
