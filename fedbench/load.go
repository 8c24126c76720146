package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

type opKind uint8

const (
	opAdmit opKind = iota
	opRemove
	opRead
	opNull // a round trip to the null server, not to the daemon
)

func (k opKind) String() string {
	return [...]string{"admit", "remove", "read", "null"}[k]
}

// record is one request as the client saw it. Latency is measured from due,
// the time the schedule said the request should go out, so a stall also
// charges the requests it delayed.
type record struct {
	kind             opKind
	name             string
	status           int // 0 after a transport error
	due, sent, done  time.Time
	trace            string
	body, resp       []byte // kept only for the traced replay
	timed, completed bool
	keepResp         bool // keep resp even when the client does not keep bodies
}

func (r *record) latency() time.Duration { return r.done.Sub(r.due) }

// isVerdict reports whether a response is an answer from the admission
// controller: 200, or a 409 rejection. Every other outcome — 429, any 5xx
// (504 included) and transport errors — is a failure, and counts as missing
// any latency limit.
func isVerdict(kind opKind, status int) bool {
	if kind == opRead || kind == opNull {
		return status == http.StatusOK
	}
	return status == http.StatusOK || status == http.StatusConflict
}

// client sends the benchmark's requests. One client is used per daemon.
type client struct {
	http  *http.Client
	url   string
	echo  string // the null server's URL
	in    *inputs
	fresh bool
	keep  bool // keep request and response bodies for the replay

	nextBody atomic.Int64
	nextName atomic.Int64
	errs500  atomic.Int64
}

func newClient(url string, in *inputs, fresh, keep bool, lanes int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     lanes,
		MaxIdleConnsPerHost: lanes,
		DisableCompression:  true,
	}
	return &client{
		http:  &http.Client{Transport: tr, Timeout: 30 * time.Second},
		url:   url,
		in:    in,
		fresh: fresh,
		keep:  keep,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// takeBody returns the next stream admit body under a fresh name; ok is
// false once a fresh-content workload has used its whole pool.
func (c *client) takeBody() (name string, body []byte, ok bool) {
	i := int(c.nextBody.Add(1) - 1)
	if c.fresh && i >= len(c.in.pool) {
		return "", nil, false
	}
	name = fmt.Sprintf("s-%d", c.nextName.Add(1))
	return name, admitBody(name, c.in.pool[i%len(c.in.pool)]), true
}

// do sends one request and fills in rec.
func (c *client) do(ctx context.Context, rec *record, body []byte) {
	var req *http.Request
	var err error
	switch rec.kind {
	case opAdmit:
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.url+"/v1/admit", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	case opRemove:
		req, err = http.NewRequestWithContext(ctx, http.MethodDelete, c.url+"/v1/tasks/"+rec.name, nil)
	case opRead:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/v1/allocation", nil)
	default:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.echo+"/", nil)
	}
	if c.keep {
		rec.body = body
	}
	rec.sent = time.Now()
	if err == nil {
		var resp *http.Response
		resp, err = c.http.Do(req)
		if err == nil {
			if (c.keep && rec.kind != opRead && rec.kind != opNull) || rec.keepResp {
				rec.resp, err = io.ReadAll(resp.Body)
			} else {
				_, err = io.Copy(io.Discard, resp.Body)
			}
			resp.Body.Close()
			rec.status = resp.StatusCode
			rec.trace = resp.Header.Get("X-Trace-Id")
		}
	}
	rec.done = time.Now()
	if err != nil {
		rec.status = 0
	}
	if rec.status == http.StatusInternalServerError {
		c.errs500.Add(1)
	}
	rec.completed = isVerdict(rec.kind, rec.status)
}

// uncertain reports whether a mutation's outcome is unknown to the client: a
// 504 or a transport error. The shard's writer loop may still have executed
// it, so only the installed allocation can tell.
func uncertain(status int) bool {
	return status == 0 || status == http.StatusGatewayTimeout
}

// liveSet is a client's installed stream tasks, oldest first, plus the
// tasks whose last mutation had an uncertain outcome.
type liveSet struct {
	mu      sync.Mutex
	names   []string
	unknown []string
}

// next decides a client's next mutation: remove the oldest installed task
// once target are installed, else admit a new one.
func (l *liveSet) next(c *client, target int) (kind opKind, name string, body []byte, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.names) >= target {
		name = l.names[0]
		l.names = l.names[1:]
		return opRemove, name, nil, true
	}
	name, body, ok = c.takeBody()
	return opAdmit, name, body, ok
}

// settle updates the set with a finished mutation: an installed admit joins
// it; a removal that did not happen puts the task back, behind the others.
// (FEDCONS is not monotone under removal: the shard may answer 409 when the
// remaining system no longer partitions, and the task stays installed.) A
// task whose mutation had an uncertain outcome is set aside until the end of
// the run, when resolve learns from the allocation whether it is installed.
func (l *liveSet) settle(rec *record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case uncertain(rec.status):
		l.unknown = append(l.unknown, rec.name)
	case rec.kind == opAdmit && rec.status == http.StatusOK, rec.kind == opRemove && rec.status != http.StatusOK:
		l.names = append(l.names, rec.name)
	}
}

func (l *liveSet) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.names...)
}

// resolve returns the live names plus every uncertain task that the sorted
// installed list holds.
func (l *liveSet) resolve(installed []string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]string(nil), l.names...)
	for _, name := range l.unknown {
		if i := sort.SearchStrings(installed, name); i < len(installed) && installed[i] == name {
			out = append(out, name)
		}
	}
	return out
}

// openLoop runs n requests on a fixed schedule — request i is due at
// start + i·interval — over `lanes` concurrent lanes, and returns once every
// request has completed. A lane that falls behind sends late; send measures
// from due, so the wait a stall imposes on later requests is counted.
func openLoop(ctx context.Context, n int, interval time.Duration, lanes int, send func(i int, due time.Time)) {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < lanes; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				send(i, due)
			}
		}()
	}
	wg.Wait()
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The Go
// timer wakes a sleeper up to a millisecond late on common virtual
// machines; the kernel's high-resolution timer is far closer, and every
// microsecond of lateness would be charged to the server.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// runOpen drives the workload's open-loop mix for dur: slot kinds (read,
// null or mutation) come from the seeded slot pattern; a mutation slot
// (opAdmit) admits or removes depending on the shared live set.
func (c *client) runOpen(ctx context.Context, sp spec, slots []opKind, interval time.Duration, lanes int, live *liveSet) []record {
	recs := make([]record, len(slots))
	openLoop(ctx, len(slots), interval, lanes, func(i int, due time.Time) {
		rec := &recs[i]
		rec.due, rec.timed = due, true
		if slots[i] != opAdmit {
			rec.kind = slots[i]
			c.do(ctx, rec, nil)
			return
		}
		kind, name, body, ok := live.next(c, sp.live)
		if !ok {
			rec.timed = false // pool exhausted: the slot is not attempted
			return
		}
		rec.kind, rec.name = kind, name
		c.do(ctx, rec, body)
		live.settle(rec)
	})
	return recs
}

// runClosed runs lanes closed-loop clients, each sending its next mutation
// as soon as the previous one answers, for dur (or until a fresh-content
// pool runs out). It returns the records, the start and the wall time.
func (c *client) runClosed(ctx context.Context, sp spec, dur time.Duration, lanes int, lives []*liveSet) ([]record, time.Time, time.Duration) {
	per := make([][]record, lanes)
	perLane := (sp.live + lanes - 1) / lanes // keep about sp.live installed in all
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < lanes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				kind, name, body, ok := lives[w].next(c, perLane)
				if !ok {
					return
				}
				rec := record{kind: kind, name: name, timed: true}
				rec.due = time.Now()
				c.do(ctx, &rec, body)
				lives[w].settle(&rec)
				per[w] = append(per[w], rec)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []record
	for _, p := range per {
		all = append(all, p...)
	}
	return all, start, elapsed
}
