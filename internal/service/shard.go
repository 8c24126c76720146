package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fedsched/internal/core"
	"fedsched/internal/obs"
	"fedsched/internal/partition"
	"fedsched/internal/store"
	"fedsched/internal/task"
)

// Shard is one independent admission domain: a live task system, its current
// FEDCONS allocation, the content-addressed Phase-1 memo cache, and (when
// durability is configured) the WAL+snapshot store that lets it restart into
// its exact pre-crash state. A Server holds N shards, shared-nothing: they
// serialize their own mutations, own their own queues, caches, metrics and
// WAL directories, and never touch each other's state.
//
// Consistency model (unchanged from the pre-shard single server): all
// mutations (admit, remove) serialize through a single-writer loop, so trial
// analyses always run against a quiescent state; reads take an RWMutex
// read-lock on the installed snapshot and never block behind an analysis in
// progress. Every state the shard installs — and therefore every state a
// reader can observe — has passed core.Verify.
//
// Durability model: when a store is attached, the mutation record is
// appended and fsynced to the WAL *before* the new state is installed or
// acknowledged, so every verdict a client ever received is recoverable. An
// atomic batch is one WAL record, so replay can never half-apply it.
type Shard struct {
	id    int
	cfg   Config
	cache *AnalysisCache
	store *store.Store // nil without Config.WALDir

	mu    sync.RWMutex // guards sys and alloc (the installed snapshot)
	sys   task.System
	alloc *core.Allocation // nil iff sys is empty

	// sysHashes holds the content hash (core.TaskHash hex) of each installed
	// task, index aligned with sys. Writer-loop-only (and recovery, which
	// runs before the loop starts): maintained so WAL records and snapshots
	// never re-hash the installed system.
	sysHashes []string

	// pstate is the live incremental Phase-2 partition mirroring alloc's
	// low-density placement; nil when alloc is nil (or after a rebuild
	// failure, which just disables the warm path). Writer-loop-only, like
	// sysHashes: mutated by the warm path and re-derived from the installed
	// allocation after every full-analysis install (see syncPartitionState).
	pstate *partition.State

	reqs    chan *request
	closing chan struct{}
	closed  atomic.Bool
	loop    sync.WaitGroup
	once    sync.Once

	met      metrics
	varsMap  http.Handler
	promVars *expvar.Map
	started  time.Time

	// tracePrefix + traceSeq mint per-request trace IDs like "a1b2c3d4-000007".
	tracePrefix string
	traceSeq    obs.Counter

	// flight retains the last N decision entries (nil when the recorder is
	// disabled); flightTick drives the 1-in-FlightSampleEvery speculative
	// tracing of untraced full-path admissions.
	flight     *flightRing
	flightTick obs.Counter

	// slo is the server-wide SLO ledger (shared across shards, nil-safe);
	// set by service.New before the shard serves its first request.
	slo *sloState
}

// mutMeta is the per-mutation metadata threaded from the HTTP handler through
// the writer loop into the WAL record and the flight recorder.
type mutMeta struct {
	trace   string
	cluster string
}

// request is one queued mutation for the writer loop.
type request struct {
	ctx   context.Context
	trace string // trace ID, echoed in queue-expiry error bodies
	run   func() opResult
	resp  chan opResult // buffered: the loop never blocks on a gone client
}

// opResult is a finished operation: an HTTP status and a JSON body. flight,
// when non-nil, is a decision entry the writer loop stamps with the
// operation's latency and retains in the shard's flight recorder.
type opResult struct {
	status int
	body   []byte
	flight *FlightEntry
}

// newShard builds shard id, recovers its durable state when cfg.WALDir is
// set, and starts its writer loop.
func newShard(id int, cfg Config) (*Shard, error) {
	s := &Shard{
		id:          id,
		cfg:         cfg,
		cache:       NewAnalysisCache(),
		reqs:        make(chan *request, cfg.QueueBound),
		closing:     make(chan struct{}),
		started:     time.Now(),
		tracePrefix: randomTracePrefix(),
	}
	if cfg.FlightRecorderSize >= 0 {
		n := cfg.FlightRecorderSize
		if n == 0 {
			n = DefaultFlightEntries
		}
		s.flight = newFlightRing(n)
	}
	if cfg.WALDir != "" {
		st, rec, err := store.Open(filepath.Join(cfg.WALDir, fmt.Sprintf("shard-%d", id)), cfg.SnapshotEvery)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", id, err)
		}
		s.store = st
		if err := s.recover(rec); err != nil {
			st.Close()
			return nil, fmt.Errorf("shard %d: %w", id, err)
		}
	}
	s.promVars = s.vars()
	s.varsMap = varsHandler(s.promVars)
	s.loop.Add(1)
	go s.writerLoop()
	return s, nil
}

// recover rebuilds the shard's live state from a store Recovery: the logged
// content hashes are re-derived from the recovered tasks (end-to-end
// integrity check on snapshot+WAL), the full FEDCONS analysis is re-run —
// filling the Phase-1 memo on core's worker pool (Config.Options.Par) — and
// the resulting allocation is re-audited by core.Verify before it is
// installed.
// Runs before the writer loop starts, so the fields need no locking.
func (s *Shard) recover(rec *store.Recovery) error {
	if len(rec.Tasks) == 0 {
		return nil
	}
	if rec.M != 0 && rec.M != s.cfg.M {
		return fmt.Errorf("wal-dir holds a system admitted against m=%d, daemon configured with m=%d; refusing to reinterpret it", rec.M, s.cfg.M)
	}
	// The policy is recorded alongside M in the snapshot, so the check shares
	// its gate: a WAL-only recovery (no snapshot yet, rec.M == 0) carries no
	// policy record to compare against.
	if rec.M != 0 && rec.Policy != s.cfg.Options.Policy {
		return fmt.Errorf("wal-dir holds a system admitted under -policy=%s, daemon configured with -policy=%s; refusing to reinterpret it",
			policyLabel(rec.Policy), policyLabel(s.cfg.Options.Policy))
	}
	for i, tk := range rec.Tasks {
		if h := s.cache.hashOf(tk).String(); h != rec.Hashes[i] {
			return fmt.Errorf("recovered task %q hashes to %s but the log recorded %s: store corrupted", tk.Name, h[:12], rec.Hashes[i])
		}
	}
	alloc, err := core.ScheduleMemo(rec.Tasks, s.cfg.M, s.cfg.Options, s.cache)
	if err != nil {
		return fmt.Errorf("recovered system failed re-analysis: %w", err)
	}
	if err := core.Verify(rec.Tasks, s.cfg.M, alloc); err != nil {
		return fmt.Errorf("recovered allocation failed verification: %w", err)
	}
	s.sys, s.alloc, s.sysHashes = rec.Tasks, alloc, rec.Hashes
	// Rebuild the incremental Phase-2 state from the recovered allocation, so
	// the first warm admission after a crash takes the same fast path — and
	// produces the same bytes — as on a daemon that never crashed.
	s.syncPartitionState()
	return nil
}

// Close stops the writer loop after draining every queued request, so no
// client is left waiting on an unanswered channel, then closes the WAL. It
// is idempotent. Deliberately no parting snapshot: a clean close must stay
// indistinguishable from a crash so the recovery path is the only path.
func (s *Shard) Close() {
	s.once.Do(func() {
		s.closed.Store(true)
		close(s.closing)
	})
	s.loop.Wait()
	if s.store != nil {
		s.store.Close()
	}
}

// ID returns the shard's index within its server.
func (s *Shard) ID() int { return s.id }

// Cache exposes the analysis cache (read-only use: stats).
func (s *Shard) Cache() *AnalysisCache { return s.cache }

// Snapshot returns the installed system and allocation. The system slice is
// a copy; the allocation is shared and must be treated as immutable.
func (s *Shard) Snapshot() (task.System, *core.Allocation) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sys.Clone(), s.alloc
}

func (s *Shard) writerLoop() {
	defer s.loop.Done()
	for {
		select {
		case req := <-s.reqs:
			s.serve(req)
		case <-s.closing:
			for {
				select {
				case req := <-s.reqs:
					s.serve(req)
				default:
					return
				}
			}
		}
	}
}

func (s *Shard) serve(req *request) {
	if err := req.ctx.Err(); err != nil {
		s.met.timeouts.Add(1)
		req.resp <- errResultTrace(http.StatusGatewayTimeout, "admission deadline expired while queued: "+err.Error(), req.trace)
		return
	}
	req.resp <- req.run()
}

// submit routes a mutation through the writer loop, shedding load when the
// queue is full and honoring the caller's context deadline. The trace ID is
// echoed in every error body minted here (429/503/504), so a client that
// never got a verdict still holds a handle the operator can grep for. Every
// outcome — including sheds and timeouts that never reached the loop — feeds
// the SLO ledger with the client-visible latency (queue wait included).
func (s *Shard) submit(ctx context.Context, op, traceID string, run func() opResult) opResult {
	start := time.Now()
	res := s.submitInner(ctx, traceID, run)
	s.slo.observe(op, res.status, time.Since(start))
	return res
}

func (s *Shard) submitInner(ctx context.Context, traceID string, run func() opResult) opResult {
	if s.closed.Load() {
		return errResultTrace(http.StatusServiceUnavailable, "server shutting down", traceID)
	}
	req := &request{ctx: ctx, trace: traceID, run: run, resp: make(chan opResult, 1)}
	select {
	case s.reqs <- req:
	default:
		s.met.shed.Add(1)
		return errResultTrace(http.StatusTooManyRequests, "admission queue full; retry later", traceID)
	}
	select {
	case res := <-req.resp:
		return res
	case <-ctx.Done():
		// The loop may still execute the request (it re-checks the context
		// before starting, but cannot un-run an analysis already underway);
		// the client should GET /v1/allocation to learn the outcome.
		s.met.timeouts.Add(1)
		return errResultTrace(http.StatusGatewayTimeout, "admission deadline expired: "+ctx.Err().Error(), traceID)
	}
}

// randomTracePrefix draws the per-shard trace-ID prefix.
func randomTracePrefix() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "trace"
	}
	return hex.EncodeToString(b[:])
}

// nextTraceID mints a shard-unique request trace ID.
func (s *Shard) nextTraceID() string {
	return fmt.Sprintf("%s-%06d", s.tracePrefix, s.traceSeq.Inc())
}

// Admit trial-admits tk: it runs the full two-phase FEDCONS test on the
// current system plus tk, audits the resulting allocation with core.Verify,
// and installs it only if both succeed. The returned status is the HTTP
// status the daemon would serve: 200 installed, 409 rejected by the
// analysis (body = Verdict with the failure reason) or duplicate name,
// 429 shed, 504 deadline expired, 500 audit failure (state unchanged).
func (s *Shard) Admit(ctx context.Context, tk *task.DAGTask) (int, []byte) {
	return s.AdmitTrace(ctx, tk, s.nextTraceID(), nil)
}

// AdmitTrace is Admit with an explicit trace ID (echoed in shed/timeout error
// bodies and the Observer record) and an optional obs.Recorder: when rec is
// non-nil the full FEDCONS decision trace of the trial analysis is recorded
// into it and embedded in the Verdict's "trace" field — the daemon's
// ?trace=1 admit mode.
func (s *Shard) AdmitTrace(ctx context.Context, tk *task.DAGTask, traceID string, rec *obs.Recorder) (int, []byte) {
	return s.admitOp(ctx, tk, traceID, rec, "")
}

// admitOp is AdmitTrace with the request's cluster name, threaded into the
// WAL record and the flight recorder.
func (s *Shard) admitOp(ctx context.Context, tk *task.DAGTask, traceID string, rec *obs.Recorder, cluster string) (int, []byte) {
	meta := mutMeta{trace: traceID, cluster: cluster}
	res := s.submit(ctx, "admit", traceID, func() opResult {
		return s.observed(traceID, "admit", tk.Name, func() opResult { return s.doAdmit(tk, rec, meta) })
	})
	return res.status, res.body
}

// Remove removes the named task, re-analyzes and installs the shrunken
// system. Status: 200 removed, 404 unknown name, plus the same 429/504
// envelope as Admit.
func (s *Shard) Remove(ctx context.Context, name string) (int, []byte) {
	return s.RemoveTrace(ctx, name, s.nextTraceID())
}

// RemoveTrace is Remove with an explicit trace ID.
func (s *Shard) RemoveTrace(ctx context.Context, name, traceID string) (int, []byte) {
	return s.removeOp(ctx, name, traceID, "")
}

// removeOp is RemoveTrace with the request's cluster name.
func (s *Shard) removeOp(ctx context.Context, name, traceID, cluster string) (int, []byte) {
	meta := mutMeta{trace: traceID, cluster: cluster}
	res := s.submit(ctx, "remove", traceID, func() opResult {
		return s.observed(traceID, "remove", name, func() opResult { return s.doRemove(name, meta) })
	})
	return res.status, res.body
}

// observed runs one mutation inside the writer loop, timing it into the
// latency histogram and reporting the completed operation to Config.Observer.
func (s *Shard) observed(traceID, op, taskName string, run func() opResult) opResult {
	start := time.Now()
	var h0, m0 int64
	if s.cfg.Observer != nil {
		h0, m0 = s.cache.Stats()
	}
	res := run()
	lat := time.Since(start)
	if op == "admit" || op == "admit-batch" {
		s.met.latency.Observe(lat)
	}
	if res.flight != nil {
		// Stamp and retain the decision entry here, where the latency is
		// known; we are the writer loop, the ring's single writer.
		res.flight.UnixNs = start.UnixNano()
		res.flight.LatencyNs = lat.Nanoseconds()
		s.flight.put(res.flight)
		res.flight = nil
	}
	if s.cfg.Observer != nil {
		h1, m1 := s.cache.Stats()
		s.cfg.Observer(AdmissionRecord{
			TraceID:     traceID,
			Shard:       s.id,
			Op:          op,
			Task:        taskName,
			Status:      res.status,
			Schedulable: res.status == http.StatusOK,
			LatencyNs:   lat.Nanoseconds(),
			CacheHits:   h1 - h0,
			CacheMisses: m1 - m0,
			Tasks:       len(s.sys), // safe: we are the writer loop
		})
	}
	return res
}

// persistAdmit makes an accepted admission durable before it is installed.
// A durability failure refuses the admission (500, state unchanged): the
// shard never acknowledges state it could lose.
func (s *Shard) persistAdmit(tks []*task.DAGTask, hashes []string, meta mutMeta) *opResult {
	if s.store == nil {
		return nil
	}
	if err := s.store.LogAdmit(tks, hashes, meta.trace, meta.cluster); err != nil {
		s.met.errors.Add(1)
		res := errResult(http.StatusInternalServerError, "write-ahead log append failed: "+err.Error())
		return &res
	}
	s.met.walAppends.Add(1)
	return nil
}

// persistRemove is persistAdmit's removal twin.
func (s *Shard) persistRemove(name string, meta mutMeta) *opResult {
	if s.store == nil {
		return nil
	}
	if err := s.store.LogRemove(name, meta.trace, meta.cluster); err != nil {
		s.met.errors.Add(1)
		res := errResult(http.StatusInternalServerError, "write-ahead log append failed: "+err.Error())
		return &res
	}
	s.met.walAppends.Add(1)
	return nil
}

// maybeSnapshot checkpoints after an installed mutation. The mutation is
// already durable in the WAL, so a snapshot failure only delays truncation;
// it is counted, not surfaced to the client.
func (s *Shard) maybeSnapshot() {
	if s.store == nil {
		return
	}
	wrote, err := s.store.MaybeSnapshot(s.sys, s.sysHashes, s.cfg.M, s.cfg.Options.Policy)
	if err != nil {
		s.met.errors.Add(1)
		return
	}
	if wrote {
		s.met.snapshots.Add(1)
	}
}

// speculate decides whether an untraced full-path mutation should record its
// decision trace anyway: one in Config.FlightSampleEvery does, so the flight
// recorder retains representative full traces without paying the recorder's
// cost (≈4× on the analysis; see results/timing_obs.json) on every request.
// A client-supplied recorder always wins and is never double-counted as a
// sample. Writer-loop only.
func (s *Shard) speculate(rec *obs.Recorder) (*obs.Recorder, bool) {
	if rec != nil {
		return rec, false
	}
	if s.flight == nil || s.cfg.FlightSampleEvery <= 0 {
		return nil, false
	}
	if s.flightTick.Inc()%int64(s.cfg.FlightSampleEvery) != 0 {
		return nil, false
	}
	return obs.New(obs.DefaultLimits), true
}

// traceBytes renders a recorder's span tree exactly the way the ?trace=1
// verdict embeds it. Both the inline verdict and the flight entry are set
// from ONE call's return value, which is what makes the /debug/traces/{id}
// copy byte-identical to the inline trace.
func traceBytes(rec *obs.Recorder) []byte {
	if rec == nil {
		return nil
	}
	return rec.JSON(obs.ExportOptions{Timings: true})
}

// noteFlight attaches a decision entry to res for the writer loop to stamp
// and retain. No-op when the recorder is disabled.
func (s *Shard) noteFlight(res opResult, meta mutMeta, op, taskName string, sampled bool, trace []byte) opResult {
	if s.flight == nil {
		return res
	}
	res.flight = &FlightEntry{
		TraceID: meta.trace, Shard: s.id, Cluster: meta.cluster,
		Op: op, Task: taskName, Status: res.status, Sampled: sampled, Trace: trace,
	}
	return res
}

// doAdmit runs inside the writer loop: it is the only writer, so reading
// s.sys without the lock is safe, and the lock is taken only to install.
func (s *Shard) doAdmit(tk *task.DAGTask, rec *obs.Recorder, meta mutMeta) opResult {
	for _, cur := range s.sys {
		if cur.Name == tk.Name {
			s.met.errors.Add(1)
			res := errResult(http.StatusConflict, fmt.Sprintf("task %q already admitted; remove it first", tk.Name))
			return s.noteFlight(res, meta, "admit", tk.Name, false, traceBytes(rec))
		}
	}
	if res, ok := s.fastAdmit(tk, rec, meta); ok {
		return res
	}
	srec, sampled := s.speculate(rec)
	trial := append(s.sys.Clone(), tk)
	opt := s.cfg.Options
	opt.Trace = srec
	alloc, err := core.ScheduleMemo(trial, s.cfg.M, opt, s.cache)
	if err != nil {
		s.met.rejects.Add(1)
		v := NewVerdict(trial, s.cfg.M, nil, err)
		trace := traceBytes(srec)
		if rec != nil {
			v.Trace = trace
		}
		// Every rejection is retained — explaining "why not" after the fact
		// is the recorder's reason to exist.
		return s.noteFlight(verdictResult(http.StatusConflict, v), meta, "admit", tk.Name, sampled, trace)
	}
	if err := core.Verify(trial, s.cfg.M, alloc); err != nil {
		// The audit is the last line of defense: never install an
		// allocation the independent checker rejects.
		res := errResult(http.StatusInternalServerError, "allocation failed verification: "+err.Error())
		return s.noteFlight(res, meta, "admit", tk.Name, sampled, traceBytes(srec))
	}
	hash := s.cache.hashOf(tk).String()
	if res := s.persistAdmit([]*task.DAGTask{tk}, []string{hash}, meta); res != nil {
		return *res
	}
	s.install(trial, alloc, append(append([]string(nil), s.sysHashes...), hash))
	s.syncPartitionState()
	s.met.admits.Add(1)
	s.maybeSnapshot()
	v := NewVerdict(trial, s.cfg.M, alloc, nil)
	trace := traceBytes(srec)
	if rec != nil {
		v.Trace = trace
	}
	res := verdictResult(http.StatusOK, v)
	if sampled || rec != nil {
		// Admits are retained only when traced (client-requested or sampled);
		// retaining every warm admit would evict the interesting entries.
		res = s.noteFlight(res, meta, "admit", tk.Name, sampled, trace)
	}
	return res
}

func (s *Shard) doRemove(name string, meta mutMeta) opResult {
	idx := -1
	for i, cur := range s.sys {
		if cur.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		s.met.errors.Add(1)
		return errResult(http.StatusNotFound, fmt.Sprintf("no task named %q", name))
	}
	trial := make(task.System, 0, len(s.sys)-1)
	trial = append(trial, s.sys[:idx]...)
	trial = append(trial, s.sys[idx+1:]...)
	hashes := make([]string, 0, len(s.sysHashes))
	hashes = append(hashes, s.sysHashes[:idx]...)
	if idx < len(s.sysHashes) {
		hashes = append(hashes, s.sysHashes[idx+1:]...)
	}
	if len(trial) == 0 {
		if res := s.persistRemove(name, meta); res != nil {
			return *res
		}
		s.install(nil, nil, nil)
		s.syncPartitionState()
		s.met.removes.Add(1)
		s.maybeSnapshot()
		return verdictResult(http.StatusOK, NewVerdict(nil, s.cfg.M, nil, nil))
	}
	if res, ok := s.fastRemove(name, idx, trial, hashes, meta); ok {
		return res
	}
	alloc, err := core.ScheduleMemo(trial, s.cfg.M, s.cfg.Options, s.cache)
	if err != nil {
		// Removing a task can, in principle, perturb the deadline-ordered
		// first-fit packing enough to fail; keep the (verified) old state
		// rather than install nothing.
		s.met.errors.Add(1)
		res := errResult(http.StatusConflict, fmt.Sprintf("system unschedulable after removing %q: %v", name, err))
		return s.noteFlight(res, meta, "remove", name, false, nil)
	}
	if err := core.Verify(trial, s.cfg.M, alloc); err != nil {
		return errResult(http.StatusInternalServerError, "allocation failed verification: "+err.Error())
	}
	if res := s.persistRemove(name, meta); res != nil {
		return *res
	}
	s.install(trial, alloc, hashes)
	s.syncPartitionState()
	s.met.removes.Add(1)
	s.maybeSnapshot()
	return verdictResult(http.StatusOK, NewVerdict(trial, s.cfg.M, alloc, nil))
}

func (s *Shard) install(sys task.System, alloc *core.Allocation, hashes []string) {
	s.sysHashes = hashes
	s.mu.Lock()
	s.sys, s.alloc = sys, alloc
	s.mu.Unlock()
}

func (s *Shard) handleAdmit(w http.ResponseWriter, r *http.Request) {
	traceID := s.nextTraceID()
	w.Header().Set("X-Trace-Id", traceID)
	var tk task.DAGTask
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&tk); err != nil {
		s.met.errors.Add(1)
		writeJSON(w, errResult(http.StatusBadRequest, "decoding task: "+err.Error()))
		return
	}
	if tk.Name == "" {
		s.met.errors.Add(1)
		writeJSON(w, errResult(http.StatusBadRequest, "task must carry a unique name"))
		return
	}
	var rec *obs.Recorder
	if r.URL.Query().Get("trace") == "1" {
		rec = obs.New(obs.DefaultLimits)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.AdmitTimeout)
	defer cancel()
	status, respBody := s.admitOp(ctx, &tk, traceID, rec, requestCluster(r))
	writeJSON(w, opResult{status: status, body: respBody})
}

func (s *Shard) handleRemove(w http.ResponseWriter, r *http.Request) {
	traceID := s.nextTraceID()
	w.Header().Set("X-Trace-Id", traceID)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.AdmitTimeout)
	defer cancel()
	status, body := s.removeOp(ctx, r.PathValue("name"), traceID, requestCluster(r))
	writeJSON(w, opResult{status: status, body: body})
}

// requestCluster re-derives the cluster name a routed request addressed —
// path form first, X-Cluster header second — so handlers can annotate WAL
// records and flight entries without a signature change on the route table.
func requestCluster(r *http.Request) string {
	if c := r.PathValue("cluster"); c != "" {
		return c
	}
	return r.Header.Get(clusterHeader)
}

func (s *Shard) handleAllocation(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	sys, alloc := s.sys, s.alloc
	s.mu.RUnlock()
	writeJSON(w, verdictResult(http.StatusOK, NewVerdict(sys, s.cfg.M, alloc, nil)))
}

func varsHandler(m fmt.Stringer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintln(w, m.String())
	})
}
