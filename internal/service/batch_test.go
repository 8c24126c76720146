package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"fedsched/internal/core"
	"fedsched/internal/dag"
	"fedsched/internal/gen"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

func batchBody(t *testing.T, tks ...*task.DAGTask) []byte {
	t.Helper()
	data, err := json.Marshal(BatchRequest{Tasks: tks})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAdmitBatchAccept admits a mixed high/low-density batch atomically and
// checks the verdict, the installed snapshot, and the batch counters.
func TestAdmitBatchAccept(t *testing.T) {
	svc, ts := newTestServer(t, Config{M: 8})
	status, body, hdr := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/admit/batch",
		batchBody(t, trijob("tri"), example1Task("ex1")))
	if status != http.StatusOK {
		t.Fatalf("batch admit: %d %s", status, body)
	}
	if hdr.Get("X-Trace-Id") == "" {
		t.Error("no X-Trace-Id on batch response")
	}
	var v Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Schedulable || v.Tasks != 2 || len(v.High) != 1 || v.Dedicated != 3 || v.Shared != 5 {
		t.Fatalf("batch verdict: %+v", v)
	}
	sys, _ := svc.Snapshot()
	if len(sys) != 2 {
		t.Fatalf("snapshot has %d tasks, want 2", len(sys))
	}
	_, metricsBody, _ := doJSON(t, ts.Client(), http.MethodGet, ts.URL+"/metrics", nil)
	for _, want := range []string{"fedschedd_batch_admits_total 1\n", "fedschedd_admits_total 2\n"} {
		if !bytes.Contains(metricsBody, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, metricsBody)
		}
	}
}

// TestAdmitBatchAtomicReject: one member of the batch fits on its own, but
// the batch as a whole does not — nothing may be installed.
func TestAdmitBatchAtomicReject(t *testing.T) {
	svc, ts := newTestServer(t, Config{M: 4})
	c := ts.Client()
	if status, body, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, trijob("h1"))); status != http.StatusOK {
		t.Fatalf("seed admit: %d %s", status, body)
	}
	// ex1 alone would fit on the remaining shared processor; h2 needs 3 more.
	status, body, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit/batch",
		batchBody(t, example1Task("ex1"), trijob("h2")))
	if status != http.StatusConflict {
		t.Fatalf("batch over capacity: %d %s, want 409", status, body)
	}
	var v Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Schedulable || v.Reason == "" {
		t.Fatalf("rejection verdict: %+v", v)
	}
	sys, _ := svc.Snapshot()
	if len(sys) != 1 || sys[0].Name != "h1" {
		t.Fatalf("reject mutated the system: %d tasks", len(sys))
	}
	// ex1 alone still fits: the rejection must not have poisoned any state.
	if status, body, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, example1Task("ex1"))); status != http.StatusOK {
		t.Fatalf("ex1 after batch reject: %d %s", status, body)
	}
}

// TestAdmitBatchNameConflicts covers both 409 name paths: collision with an
// installed task and a duplicate within the batch itself.
func TestAdmitBatchNameConflicts(t *testing.T) {
	svc, ts := newTestServer(t, Config{M: 8})
	c := ts.Client()
	if status, _, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit", admitBody(t, example1Task("dup"))); status != http.StatusOK {
		t.Fatal("seed admit failed")
	}
	status, body, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit/batch",
		batchBody(t, example1Task("fresh"), example1Task("dup")))
	if status != http.StatusConflict {
		t.Fatalf("installed-name collision: %d %s, want 409", status, body)
	}
	status, body, _ = doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit/batch",
		batchBody(t, example1Task("twin"), example1Task("twin")))
	if status != http.StatusConflict {
		t.Fatalf("in-batch duplicate: %d %s, want 409", status, body)
	}
	if sys, _ := svc.Snapshot(); len(sys) != 1 {
		t.Fatalf("conflict installed tasks: %d, want 1", len(sys))
	}
}

// TestAdmitBatchValidation pins the 400 paths: malformed JSON, an empty
// batch, and an unnamed member.
func TestAdmitBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 4})
	c := ts.Client()
	unnamed := task.MustNew("", dag.Example1(), dag.Example1D, dag.Example1T)
	for name, body := range map[string][]byte{
		"malformed": []byte(`{"tasks": [`),
		"empty":     batchBody(t),
		"unnamed":   batchBody(t, unnamed),
	} {
		status, resp, _ := doJSON(t, c, http.MethodPost, ts.URL+"/v1/admit/batch", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: %d %s, want 400", name, status, resp)
		}
	}
}

// TestAdmitBatchShed fills the admission queue and checks the batch endpoint
// sheds with the same 429 + trace-ID contract as single admission.
func TestAdmitBatchShed(t *testing.T) {
	svc, ts := newTestServer(t, Config{M: 4, QueueBound: 1})
	release := make(chan struct{})
	blocked := make(chan struct{})
	go svc.submit(context.Background(), "admit", "stall", func() opResult {
		close(blocked)
		<-release
		return opResult{status: http.StatusOK}
	})
	<-blocked
	go svc.submit(context.Background(), "admit", "fill", func() opResult { return opResult{status: http.StatusOK} })
	deadline := time.Now().Add(time.Second)
	for len(svc.reqs) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	status, body, hdr := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/admit/batch",
		batchBody(t, example1Task("x")))
	close(release)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", status)
	}
	var e map[string]string
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("429 body not JSON: %s", body)
	}
	if e["trace_id"] == "" || e["trace_id"] != hdr.Get("X-Trace-Id") {
		t.Errorf("429 body trace_id = %q, header %q", e["trace_id"], hdr.Get("X-Trace-Id"))
	}
}

// TestAdmitBatchInlineTrace: ?trace=1 on the batch endpoint returns the
// decision trace for the trial analysis.
func TestAdmitBatchInlineTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{M: 8})
	status, body, _ := doJSON(t, ts.Client(), http.MethodPost, ts.URL+"/v1/admit/batch?trace=1",
		batchBody(t, trijob("h1"), example1Task("e1")))
	if status != http.StatusOK {
		t.Fatalf("batch admit: %d %s", status, body)
	}
	var v struct {
		Trace []struct {
			Name string `json:"name"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if len(v.Trace) == 0 || v.Trace[0].Name != "fedcons" {
		t.Fatalf("batch trace = %+v", v.Trace)
	}
}

// batchSystem draws n distinct tasks, most high-density, for the batch
// differential tests: the regime where the parallel prewarm actually fans out.
func batchSystem(t testing.TB, seed int64, n int) (task.System, int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	p := gen.DefaultParams(n, float64(n))
	p.MinVerts, p.MaxVerts = 20, 60
	p.BetaMin, p.BetaMax = 0.1, 0.4
	sys, err := gen.System(r, p)
	if err != nil {
		t.Fatal(err)
	}
	for m := 8; m <= 1<<16; m *= 2 {
		if _, err := core.Schedule(sys, m, core.Options{}); err == nil {
			return sys, m
		}
	}
	t.Fatal("batch system unschedulable at every platform size")
	return nil, 0
}

// TestAdmitBatchParMatchesSequential is the service-level differential test:
// a batch admission through a Par-configured server must produce exactly the
// same status, verdict bytes, installed snapshot, and cache hit/miss totals
// as a sequential server, cold and warm. The traced input admits through
// AdmitBatchTrace and compares the decision trace instead of the verdict
// (which embeds the trace with timings): with timings stripped it must be
// byte-identical too, per-μ "mu" children of pool-analyzed misses included.
func TestAdmitBatchParMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		sys, m := batchSystem(t, seed, 10)
		for _, traced := range []bool{false, true} {
			run := func(par int) (int, []byte, int64, int64, task.System) {
				cfg := Config{M: m}
				cfg.Options.Par = par
				svc, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer svc.Close()
				ctx := context.Background()
				var status int
				var body []byte
				if traced {
					rec := obs.New(obs.DefaultLimits)
					status, _ = svc.AdmitBatchTrace(ctx, sys.Clone(), "batch", rec)
					body = rec.JSON(obs.ExportOptions{})
				} else {
					status, body = svc.AdmitBatch(ctx, sys.Clone())
				}
				hits, misses := svc.cache.Stats()
				snap, _ := svc.Snapshot()
				return status, body, hits, misses, snap
			}
			seqStatus, seqBody, seqHits, seqMisses, seqSnap := run(0)
			for _, par := range []int{2, 4, 8} {
				parStatus, parBody, parHits, parMisses, parSnap := run(par)
				if parStatus != seqStatus || !bytes.Equal(parBody, seqBody) {
					t.Errorf("seed %d par %d traced %v: status/body diverge:\nseq %d %s\npar %d %s",
						seed, par, traced, seqStatus, seqBody, parStatus, parBody)
				}
				if parHits != seqHits || parMisses != seqMisses {
					t.Errorf("seed %d par %d traced %v: cache stats %d/%d, sequential %d/%d",
						seed, par, traced, parHits, parMisses, seqHits, seqMisses)
				}
				if len(parSnap) != len(seqSnap) {
					t.Errorf("seed %d par %d traced %v: snapshot %d tasks, sequential %d",
						seed, par, traced, len(parSnap), len(seqSnap))
				}
			}
		}
	}
}
