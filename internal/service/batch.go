package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"fedsched/internal/core"
	"fedsched/internal/obs"
	"fedsched/internal/task"
)

// BatchRequest is the body of POST /v1/admit/batch: a list of tasks admitted
// all-or-nothing.
type BatchRequest struct {
	Tasks []*task.DAGTask `json:"tasks"`
}

// AdmitBatch trial-admits every task in tks atomically: the full two-phase
// FEDCONS test runs once on the current system plus the whole batch, the
// resulting allocation is audited with core.Verify, and either all tasks are
// installed or none is. A cold analysis fans its Phase-1 MINPROCS scans out
// across the configured worker pool (Config.Options.Par); tasks the daemon
// has analyzed before are served from the content-addressed memo. Statuses
// mirror Admit: 200 installed, 409 rejected (duplicate name or analysis
// failure; the body carries the Verdict for the trial system), 429 shed,
// 504 deadline expired, 500 audit failure (state unchanged).
func (s *Shard) AdmitBatch(ctx context.Context, tks []*task.DAGTask) (int, []byte) {
	return s.AdmitBatchTrace(ctx, tks, s.nextTraceID(), nil)
}

// AdmitBatchTrace is AdmitBatch with an explicit trace ID and an optional
// obs.Recorder for the trial analysis's decision trace (?trace=1).
func (s *Shard) AdmitBatchTrace(ctx context.Context, tks []*task.DAGTask, traceID string, rec *obs.Recorder) (int, []byte) {
	return s.admitBatchOp(ctx, tks, traceID, rec, "")
}

// admitBatchOp is AdmitBatchTrace with the request's cluster name.
func (s *Shard) admitBatchOp(ctx context.Context, tks []*task.DAGTask, traceID string, rec *obs.Recorder, cluster string) (int, []byte) {
	names := make([]string, len(tks))
	for i, tk := range tks {
		names[i] = tk.Name
	}
	label := strings.Join(names, ",")
	meta := mutMeta{trace: traceID, cluster: cluster}
	res := s.submit(ctx, "admit-batch", traceID, func() opResult {
		return s.observed(traceID, "admit-batch", label, func() opResult { return s.doAdmitBatch(tks, rec, meta, label) })
	})
	return res.status, res.body
}

// doAdmitBatch runs inside the writer loop (single writer: lock-free reads of
// s.sys are safe; see doAdmit). label is the comma-joined task-name list used
// for flight entries and Observer records.
func (s *Shard) doAdmitBatch(tks []*task.DAGTask, rec *obs.Recorder, meta mutMeta, label string) opResult {
	installed := make(map[string]bool, len(s.sys))
	for _, cur := range s.sys {
		installed[cur.Name] = true
	}
	seen := make(map[string]bool, len(tks))
	for _, tk := range tks {
		switch {
		case installed[tk.Name]:
			s.met.errors.Add(1)
			res := errResult(http.StatusConflict, fmt.Sprintf("task %q already admitted; remove it first", tk.Name))
			return s.noteFlight(res, meta, "admit-batch", label, false, traceBytes(rec))
		case seen[tk.Name]:
			s.met.errors.Add(1)
			res := errResult(http.StatusConflict, fmt.Sprintf("task %q appears twice in the batch", tk.Name))
			return s.noteFlight(res, meta, "admit-batch", label, false, traceBytes(rec))
		}
		seen[tk.Name] = true
	}

	srec, sampled := s.speculate(rec)
	trial := append(s.sys.Clone(), tks...)
	opt := s.cfg.Options
	opt.Trace = srec
	alloc, err := core.ScheduleMemo(trial, s.cfg.M, opt, s.cache)
	if err != nil {
		// All-or-nothing: one infeasible combination rejects the whole batch
		// and leaves the installed system untouched.
		s.met.rejects.Add(1)
		v := NewVerdict(trial, s.cfg.M, nil, err)
		trace := traceBytes(srec)
		if rec != nil {
			v.Trace = trace
		}
		return s.noteFlight(verdictResult(http.StatusConflict, v), meta, "admit-batch", label, sampled, trace)
	}
	if err := core.Verify(trial, s.cfg.M, alloc); err != nil {
		return errResult(http.StatusInternalServerError, "allocation failed verification: "+err.Error())
	}
	hashes := make([]string, len(tks))
	for i, tk := range tks {
		hashes[i] = s.cache.hashOf(tk).String()
	}
	// One WAL record for the whole batch: replay is as atomic as admission.
	if res := s.persistAdmit(tks, hashes, meta); res != nil {
		return *res
	}
	s.install(trial, alloc, append(append([]string(nil), s.sysHashes...), hashes...))
	s.syncPartitionState()
	s.met.admits.Add(int64(len(tks)))
	s.met.batches.Add(1)
	s.maybeSnapshot()
	v := NewVerdict(trial, s.cfg.M, alloc, nil)
	trace := traceBytes(srec)
	if rec != nil {
		v.Trace = trace
	}
	res := verdictResult(http.StatusOK, v)
	if sampled || rec != nil {
		res = s.noteFlight(res, meta, "admit-batch", label, sampled, trace)
	}
	return res
}

// handleAdmitBatch decodes and validates the batch body; name-collision and
// schedulability checks run in the writer loop against a quiescent state.
func (s *Shard) handleAdmitBatch(w http.ResponseWriter, r *http.Request) {
	traceID := s.nextTraceID()
	w.Header().Set("X-Trace-Id", traceID)
	var req BatchRequest
	body := http.MaxBytesReader(w, r.Body, 16<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.met.errors.Add(1)
		writeJSON(w, errResult(http.StatusBadRequest, "decoding batch: "+err.Error()))
		return
	}
	if len(req.Tasks) == 0 {
		s.met.errors.Add(1)
		writeJSON(w, errResult(http.StatusBadRequest, "batch must contain at least one task"))
		return
	}
	for i, tk := range req.Tasks {
		if tk == nil || tk.Name == "" {
			s.met.errors.Add(1)
			writeJSON(w, errResult(http.StatusBadRequest, fmt.Sprintf("batch task %d must carry a unique name", i)))
			return
		}
	}
	var rec *obs.Recorder
	if r.URL.Query().Get("trace") == "1" {
		rec = obs.New(obs.DefaultLimits)
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.AdmitTimeout)
	defer cancel()
	status, respBody := s.admitBatchOp(ctx, req.Tasks, traceID, rec, requestCluster(r))
	writeJSON(w, opResult{status: status, body: respBody})
}
