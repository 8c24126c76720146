package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fedsched/internal/core"
	"fedsched/internal/service"
	"fedsched/internal/store"
	"fedsched/internal/task"
)

// expectedVerdict is what the daemon must answer for system sys: the verdict
// of a from-scratch core.Schedule, encoded the way the daemon encodes it.
func expectedVerdict(sys task.System, m int, opt core.Options) ([]byte, error) {
	alloc, err := core.Schedule(sys, m, opt)
	return service.NewVerdict(sys, m, alloc, err).Encode()
}

// installBase admits the base system one task at a time, in order. The
// records are kept for the replay, which re-executes them.
func (c *client) installBase(ctx context.Context) ([]record, error) {
	recs := make([]record, len(c.in.base))
	for i, tk := range c.in.base {
		rec := &recs[i]
		rec.kind, rec.name = opAdmit, tk.Name
		c.do(ctx, rec, c.in.baseBodies[i])
		if rec.status != http.StatusOK {
			return nil, fmt.Errorf("installing base task %s: status %d", tk.Name, rec.status)
		}
	}
	return recs, nil
}

// getAllocation fetches GET /v1/allocation.
func (c *client) getAllocation(ctx context.Context) ([]byte, error) {
	rec := record{kind: opRead, keepResp: true}
	c.do(ctx, &rec, nil)
	if !rec.completed {
		return nil, fmt.Errorf("GET /v1/allocation: status %d", rec.status)
	}
	return rec.resp, nil
}

// walAppends reads the daemon's count of WAL appends from GET /debug/vars;
// a daemon without a store has no such counter, and made none.
func (c *client) walAppends(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url+"/debug/vars", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var vars struct {
		Appends int `json:"wal_appends_total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, fmt.Errorf("GET /debug/vars: %w", err)
	}
	return vars.Appends, nil
}

// installedNames lists every task named in an allocation verdict.
func installedNames(body []byte) ([]string, error) {
	var v service.Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	if !v.Schedulable {
		return nil, fmt.Errorf("installed allocation is not schedulable: %s", v.Reason)
	}
	var names []string
	for _, h := range v.High {
		names = append(names, h.Task)
	}
	for _, sp := range v.SharedProcs {
		names = append(names, sp.Tasks...)
	}
	sort.Strings(names)
	return names, nil
}

// checkLiveSet resolves the live set's uncertain tasks against the installed
// allocation, then compares the installed task set with the base system plus
// the live set. It returns the resolved live set.
func (c *client) checkLiveSet(ctx context.Context, l *liveSet) ([]string, error) {
	body, err := c.getAllocation(ctx)
	if err != nil {
		return l.snapshot(), err
	}
	got, err := installedNames(body)
	if err != nil {
		return l.snapshot(), err
	}
	live := l.resolve(got)
	var want []string
	for _, tk := range c.in.base {
		want = append(want, tk.Name)
	}
	want = append(want, live...)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return live, fmt.Errorf("installed set (%d tasks) differs from the client's live set (%d tasks)", len(got), len(want))
	}
	return live, nil
}

// settle removes every live stream task, then admits the final tasks one at
// a time. Mutations are serial here, so the daemon's task order is known:
// each final admit's verdict and the final allocation must be byte-equal to
// a from-scratch core.Schedule of that order. It returns the final
// allocation body and the settle records (for the replay).
func (c *client) settle(ctx context.Context, live []string) ([]byte, []record, error) {
	var recs []record
	// A removal the shard rejects (409: the rest no longer partitions) is
	// retried after the others; stop only when a pass removes nothing.
	for len(live) > 0 {
		var kept []string
		for _, name := range live {
			rec := record{kind: opRemove, name: name}
			c.do(ctx, &rec, nil)
			recs = append(recs, rec)
			switch rec.status {
			case http.StatusOK:
			case http.StatusConflict:
				kept = append(kept, name)
			default:
				return nil, nil, fmt.Errorf("settle: removing %s: status %d", name, rec.status)
			}
		}
		if len(kept) == len(live) {
			return nil, nil, fmt.Errorf("settle: none of %d installed stream tasks can be removed", len(kept))
		}
		live = kept
	}
	sys := c.in.base.Clone()
	for _, tk := range c.in.final {
		body, err := json.Marshal(tk)
		if err != nil {
			return nil, nil, err
		}
		rec := record{kind: opAdmit, name: tk.Name, keepResp: true}
		c.do(ctx, &rec, body)
		if !isVerdict(rec.kind, rec.status) {
			return nil, nil, fmt.Errorf("settle: admitting %s: status %d", tk.Name, rec.status)
		}
		want, err := expectedVerdict(append(sys.Clone(), tk), c.in.m, c.in.opt)
		if err != nil {
			return nil, nil, err
		}
		if !bytes.Equal(rec.resp, want) {
			return nil, nil, fmt.Errorf("settle: verdict for %s differs from core.Schedule of the same system", tk.Name)
		}
		if rec.status == http.StatusOK {
			sys = append(sys, tk)
		}
		recs = append(recs, rec)
	}
	final, err := c.getAllocation(ctx)
	if err != nil {
		return nil, nil, err
	}
	want, err := expectedVerdict(sys, c.in.m, c.in.opt)
	if err != nil {
		return nil, nil, err
	}
	if !bytes.Equal(final, want) {
		return nil, nil, fmt.Errorf("final GET /v1/allocation differs from core.Schedule of the installed system")
	}
	return final, recs, nil
}

// writePristineStore writes durable-churn's base system through the store's
// public API: one WAL record per base task, as a daemon would have logged.
func writePristineStore(dir string, base task.System) error {
	st, _, err := store.Open(filepath.Join(dir, "shard-0"), 0)
	if err != nil {
		return err
	}
	for _, tk := range base {
		if err := st.LogAdmit([]*task.DAGTask{tk}, []string{core.TaskHash(tk).String()}, "", ""); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// copyTree copies a directory of regular files (one level of subdirectories).
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
