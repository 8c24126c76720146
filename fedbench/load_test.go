package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestIsVerdictClassifiesFailures(t *testing.T) {
	for _, c := range []struct {
		kind   opKind
		status int
		want   bool
	}{
		{opAdmit, http.StatusOK, true},
		{opAdmit, http.StatusConflict, true}, // a rejection is a verdict
		{opRemove, http.StatusConflict, true},
		{opAdmit, http.StatusTooManyRequests, false},
		{opAdmit, http.StatusInternalServerError, false},
		{opAdmit, http.StatusServiceUnavailable, false},
		{opAdmit, http.StatusGatewayTimeout, false},
		{opAdmit, 0, false}, // transport error
		{opRead, http.StatusOK, true},
		{opRead, http.StatusConflict, false},
		{opNull, http.StatusOK, true},
		{opNull, http.StatusBadGateway, false},
	} {
		if got := isVerdict(c.kind, c.status); got != c.want {
			t.Errorf("isVerdict(%v, %d) = %v, want %v", c.kind, c.status, got, c.want)
		}
	}
}

func TestFailuresMissEveryLatencyLimit(t *testing.T) {
	recs := []record{
		{kind: opAdmit, status: 200, completed: true, timed: true, due: time.Unix(0, 0), done: time.Unix(0, 2e6)},
		{kind: opAdmit, status: 409, completed: true, timed: true, due: time.Unix(0, 0), done: time.Unix(0, 1e6)},
		{kind: opAdmit, status: 504, timed: true},
		{kind: opAdmit, status: 200, completed: true}, // untimed: warm-up
	}
	by, attempted, failed := latencies(recs)
	if attempted != 3 || failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 3 and 1", attempted, failed)
	}
	s := summarize(by[opAdmit])
	if s.q(500) != 2 || !math.IsInf(s.q(990), 1) {
		t.Errorf("p50=%v p99=%v, want 2ms and +Inf", s.q(500), s.q(990))
	}
}

// With more than half the admits failed, the p50 latency is +Inf: the run
// must then be incorrect rather than report any number for it.
func TestMajorityFailuresFailTheRun(t *testing.T) {
	ok := record{kind: opAdmit, status: 200, completed: true, timed: true, due: time.Unix(0, 0), done: time.Unix(0, 1e6)}
	recs := []record{ok, ok, {kind: opAdmit, status: 429, timed: true}, {kind: opAdmit, status: 504, timed: true}, {kind: opAdmit, timed: true}}
	by, attempted, failed := latencies(recs)
	res := &result{workload: "w", attempted: attempted, failed: failed}
	res.add("admit_p50_ms", "ms", summarize(by[opAdmit]).q(500), "")
	res.add("setup_s", "s", 0.5, "")
	res.checkFinite()
	line, correct := resultLine([]*result{res})
	if correct || len(res.problems) != 1 {
		t.Fatalf("correct=%v problems=%q, want an incorrect run with one problem", correct, res.problems)
	}
	if strings.Contains(line, "admit_p50_ms") || !strings.Contains(line, `"correct":false`) || !strings.Contains(line, "setup_s") {
		t.Errorf("result line %s: want correct=false, setup_s kept, admit_p50_ms left out", line)
	}
}

// A mutation answered 504 or lost to a transport error may still have run;
// the live set learns its outcome from the installed allocation.
func TestLiveSetResolvesUncertainOutcomes(t *testing.T) {
	l := &liveSet{}
	for _, r := range []record{
		{kind: opAdmit, name: "a", status: 200},
		{kind: opAdmit, name: "b", status: 504}, // installed after all
		{kind: opAdmit, name: "c", status: 0},   // never installed
		{kind: opAdmit, name: "d", status: 409},
		{kind: opAdmit, name: "e", status: 429},  // shed: never ran
		{kind: opRemove, name: "f", status: 504}, // removed after all
		{kind: opRemove, name: "g", status: 409}, // still installed
	} {
		l.settle(&r)
	}
	got := l.resolve([]string{"a", "b", "base", "g"})
	sort.Strings(got)
	if strings.Join(got, ",") != "a,b,g" {
		t.Errorf("resolved live set %v, want [a b g]", got)
	}
}

func TestTransportErrorIsAFailure(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	c := newClient(url, &inputs{}, false, false, 1)
	rec := record{kind: opRead}
	c.do(context.Background(), &rec, nil)
	if rec.status != 0 || rec.completed {
		t.Errorf("request to a closed server: status %d completed %v, want 0 and false", rec.status, rec.completed)
	}
}

// A server that stalls on its first request: the open loop must keep its
// schedule and charge every request the wait since it was due.
func TestOpenLoopTimesFromDueAgainstStalledServer(t *testing.T) {
	const stall = 200 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	c := newClient(srv.URL, &inputs{}, false, false, 1)
	defer c.close()

	const n, interval = 20, 10 * time.Millisecond
	reads := make([]opKind, n)
	for i := range reads {
		reads[i] = opRead
	}
	start := time.Now()
	recs := c.runOpen(context.Background(), spec{}, reads, interval, 1, &liveSet{})
	for i, r := range recs {
		wantDue := start.Add(time.Duration(i) * interval)
		if d := r.due.Sub(wantDue); d < 0 || d > 5*time.Millisecond {
			t.Errorf("request %d due %v after the schedule start, want %v", i, r.due.Sub(start), wantDue.Sub(start))
		}
		if !r.completed {
			t.Fatalf("request %d did not complete (status %d)", i, r.status)
		}
	}
	// Requests due during the stall went out only after it, and their
	// latency includes the wait since they were due.
	stallEnd := recs[0].done
	for i := 1; i < n; i++ {
		r := recs[i]
		if r.due.After(stallEnd) {
			continue
		}
		if r.sent.Before(stallEnd) {
			t.Errorf("request %d sent %v before the stall ended", i, stallEnd.Sub(r.sent))
		}
		if wait := stallEnd.Sub(r.due); r.latency() < wait {
			t.Errorf("request %d latency %v, want ≥ %v (the wait since it was due)", i, r.latency(), wait)
		}
	}
	if late := recs[1].sent.Sub(recs[1].due); late < stall/2 {
		t.Errorf("request 1 went out %v late, want about %v", late, stall-interval)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "loop", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 50, end: 60},
		{name: "c", parent: 2, start: 52, end: 55},
	}}
	want := []time.Duration{60, 30, 7, 3}
	for i, got := range tr.selfTimes() {
		if got != want[i] {
			t.Errorf("self time of %s = %v, want %v", tr.spans[i].name, got, want[i])
		}
	}
}

// Splitting a live set among closed-loop clients and merging it back must
// keep the tasks whose outcome is uncertain.
func TestSplitKeepsUncertainTasks(t *testing.T) {
	l := &liveSet{names: []string{"a", "b", "c"}, unknown: []string{"x"}}
	merged := allLive(split(l, 2)...)
	names := append([]string(nil), merged.names...)
	sort.Strings(names)
	if strings.Join(names, ",") != "a,b,c" || strings.Join(merged.unknown, ",") != "x" {
		t.Errorf("merged names %v unknown %v, want [a b c] and [x]", names, merged.unknown)
	}
}
