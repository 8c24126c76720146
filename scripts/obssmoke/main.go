// Command obssmoke is the end-to-end smoke test of the observability layer,
// run by `make obs-smoke` (and CI). Like servesmoke it drives the real
// fedschedd binary over real HTTP, but it exercises the operational surface:
//
//  1. builds ./cmd/fedschedd into a temp dir,
//  2. starts it with -v, -audit and -debug-addr on ephemeral ports,
//  3. scrapes /metrics and asserts the Prometheus exposition carries the
//     expected counter/gauge/histogram families with correct TYPE lines,
//  4. admits the paper's Example 1 task with ?trace=1 and asserts the verdict
//     embeds a fedcons decision trace and an X-Trace-Id header,
//  5. re-scrapes /metrics and asserts admits_total and the latency histogram
//     advanced, and that /debug/vars reports the same admits_total, tasks
//     and cache_hits as the exposition (both views read one source),
//  6. forces a traced rejection, fetches the retained decision trace from
//     /debug/traces/{id}, and asserts it is byte-identical to the inline
//     ?trace=1 verdict's trace (writing the /debug/traces listing to
//     $OBSSMOKE_TRACES_OUT for CI artifacts when set),
//  7. fetches a pprof goroutine profile from the separate debug listener,
//  8. asserts the audit log holds one valid JSON record per mutation, the
//     -v output mentions the trace ID, and the rejection appears in the
//     audit trail under the same trace ID,
//  9. sends SIGTERM and asserts a clean drain.
//
// Any failure exits non-zero with a diagnosis on stderr.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fedsched/internal/dag"
	"fedsched/internal/task"
)

func main() {
	if err := smoke(); err != nil {
		fmt.Fprintln(os.Stderr, "obs-smoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("obs-smoke: PASS")
}

func smoke() error {
	tmp, err := os.MkdirTemp("", "obssmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "fedschedd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/fedschedd")
	build.Stdout, build.Stderr = os.Stdout, os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("building fedschedd: %w", err)
	}

	addrfile := filepath.Join(tmp, "addr")
	debugAddrfile := filepath.Join(tmp, "debugaddr")
	auditPath := filepath.Join(tmp, "audit.jsonl")
	var out bytes.Buffer
	daemon := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addrfile", addrfile,
		"-debug-addr", "127.0.0.1:0", "-debug-addrfile", debugAddrfile,
		"-audit", auditPath, "-v", "-m", "8")
	daemon.Stdout, daemon.Stderr = &out, &out
	if err := daemon.Start(); err != nil {
		return fmt.Errorf("starting daemon: %w", err)
	}
	exited := make(chan error, 1)
	go func() { exited <- daemon.Wait() }()
	defer daemon.Process.Kill()

	base, err := waitForAddr(addrfile, exited, &out)
	if err != nil {
		return err
	}
	debugBase, err := waitForAddr(debugAddrfile, exited, &out)
	if err != nil {
		return fmt.Errorf("debug listener: %w", err)
	}
	client := &http.Client{Timeout: 10 * time.Second}

	// 3. Fresh /metrics exposition: names, types, zero values.
	page, err := fetch(client, base+"/metrics")
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	for _, want := range []string{
		"# TYPE fedschedd_admits_total counter",
		"fedschedd_admits_total 0",
		"# TYPE fedschedd_rejects_total counter",
		"# TYPE fedschedd_queue_depth gauge",
		"# TYPE fedschedd_cache_hit_rate gauge",
		"# TYPE fedschedd_admit_latency_seconds histogram",
		`fedschedd_admit_latency_seconds_bucket{le="+Inf"} 0`,
		"fedschedd_admit_latency_seconds_count 0",
	} {
		if !strings.Contains(page, want) {
			return fmt.Errorf("/metrics missing %q; page:\n%s", want, page)
		}
	}

	// 4. Traced admission of Example 1.
	ex1 := task.MustNew("example1", dag.Example1(), dag.Example1D, dag.Example1T)
	body, err := json.Marshal(ex1)
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/admit?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("admit: %w", err)
	}
	verdictBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("admit example1: %s: %s", resp.Status, verdictBody)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		return fmt.Errorf("admit response has no X-Trace-Id header")
	}
	var v struct {
		Schedulable bool `json:"schedulable"`
		Trace       []struct {
			Name  string `json:"name"`
			DurNs *int64 `json:"dur_ns"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(verdictBody, &v); err != nil {
		return fmt.Errorf("decoding traced verdict: %w", err)
	}
	if !v.Schedulable {
		return fmt.Errorf("example1 rejected: %s", verdictBody)
	}
	if len(v.Trace) == 0 || v.Trace[0].Name != "fedcons" {
		return fmt.Errorf("?trace=1 verdict carries no fedcons trace: %s", verdictBody)
	}
	if v.Trace[0].DurNs == nil {
		return fmt.Errorf("inline trace lacks phase timings: %s", verdictBody)
	}

	// 5. Counters moved.
	page, err = fetch(client, base+"/metrics")
	if err != nil {
		return err
	}
	for _, want := range []string{
		"fedschedd_admits_total 1",
		"fedschedd_admit_latency_seconds_count 1",
		"fedschedd_tasks 1",
	} {
		if !strings.Contains(page, want) {
			return fmt.Errorf("post-admit /metrics missing %q; page:\n%s", want, page)
		}
	}
	varsPage, err := fetch(client, base+"/debug/vars")
	if err != nil {
		return err
	}
	var vars map[string]float64
	if err := json.Unmarshal([]byte(varsPage), &vars); err != nil {
		return fmt.Errorf("decoding /debug/vars: %w\n%s", err, varsPage)
	}
	for _, key := range []string{"admits_total", "tasks", "cache_hits"} {
		got, ok := vars[key]
		if !ok {
			return fmt.Errorf("/debug/vars lacks %s:\n%s", key, varsPage)
		}
		if want, err := sample(page, "fedschedd_"+key); err != nil || got != want {
			return fmt.Errorf("/debug/vars %s = %v but /metrics fedschedd_%s = %v (%v)", key, got, key, want, err)
		}
	}

	// 5b. Flight recorder: force a traced rejection, then retrieve the same
	// decision trace post-hoc from /debug/traces/{id} and assert the trace
	// bytes are identical to the inline ?trace=1 verdict's — the post-mortem
	// view must be exactly what the client saw.
	trijob := func(name string) *task.DAGTask {
		return task.MustNew(name, dag.Independent(5, 5, 5), 5, 5)
	}
	var rejectID string
	var inlineTrace json.RawMessage
	for i := 0; i < 3 && rejectID == ""; i++ {
		body, err := json.Marshal(trijob(fmt.Sprintf("tri%d", i)))
		if err != nil {
			return err
		}
		resp, err := client.Post(base+"/v1/admit?trace=1", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("admit tri%d: %w", i, err)
		}
		rejBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusConflict {
			rejectID = resp.Header.Get("X-Trace-Id")
			var rv struct {
				Trace json.RawMessage `json:"trace"`
			}
			if err := json.Unmarshal(rejBody, &rv); err != nil || len(rv.Trace) == 0 {
				return fmt.Errorf("traced rejection verdict carries no trace: %s", rejBody)
			}
			inlineTrace = rv.Trace
		} else if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("admit tri%d: %s: %s", i, resp.Status, rejBody)
		}
	}
	if rejectID == "" {
		return fmt.Errorf("no admission was rejected on the m=8 platform; cannot exercise the flight recorder")
	}
	entryBody, err := fetch(client, base+"/debug/traces/"+rejectID)
	if err != nil {
		return fmt.Errorf("fetching retained trace %s: %w", rejectID, err)
	}
	var entry struct {
		TraceID string          `json:"trace_id"`
		Op      string          `json:"op"`
		Status  int             `json:"status"`
		Trace   json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal([]byte(entryBody), &entry); err != nil {
		return fmt.Errorf("retained trace not JSON: %v\n%s", err, entryBody)
	}
	if entry.TraceID != rejectID || entry.Op != "admit" || entry.Status != http.StatusConflict {
		return fmt.Errorf("retained entry fields wrong: %s", entryBody)
	}
	if !bytes.Equal(entry.Trace, inlineTrace) {
		return fmt.Errorf("retained trace differs from the inline ?trace=1 verdict:\nretained: %s\ninline:   %s", entry.Trace, inlineTrace)
	}
	listing, err := fetch(client, base+"/debug/traces")
	if err != nil {
		return fmt.Errorf("listing flight recorder: %w", err)
	}
	if !strings.Contains(listing, rejectID) {
		return fmt.Errorf("/debug/traces listing lacks the rejection %s:\n%s", rejectID, listing)
	}
	if traceSmokeOut := os.Getenv("OBSSMOKE_TRACES_OUT"); traceSmokeOut != "" {
		// CI archives the listing as a build artifact.
		if err := os.WriteFile(traceSmokeOut, []byte(listing), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", traceSmokeOut, err)
		}
	}

	// 6. pprof profile from the separate debug listener.
	prof, err := fetch(client, debugBase+"/debug/pprof/goroutine?debug=1")
	if err != nil {
		return fmt.Errorf("pprof goroutine: %w", err)
	}
	if !strings.Contains(prof, "goroutine profile:") {
		return fmt.Errorf("unexpected pprof payload:\n%.200s", prof)
	}
	// The pprof surface must NOT be on the public listener.
	if resp, err := client.Get(base + "/debug/pprof/goroutine"); err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return fmt.Errorf("pprof exposed on the public API listener")
		}
	}

	// 7. Audit log + -v line.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("sending SIGTERM: %w", err)
	}
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("daemon exited with %v; output:\n%s", err, out.String())
		}
	case <-time.After(15 * time.Second):
		return fmt.Errorf("daemon did not exit within 15s of SIGTERM; output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), traceID) {
		return fmt.Errorf("-v output never mentioned trace ID %s; output:\n%s", traceID, out.String())
	}
	auditData, err := os.ReadFile(auditPath)
	if err != nil {
		return fmt.Errorf("reading audit log: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(auditData)), "\n")
	if len(lines) < 2 {
		return fmt.Errorf("audit log has %d records, want the example1 admit plus the trijob decisions:\n%s", len(lines), auditData)
	}
	type auditRecord struct {
		Time        string `json:"time"`
		TraceID     string `json:"trace_id"`
		Op          string `json:"op"`
		Task        string `json:"task"`
		Schedulable bool   `json:"schedulable"`
		LatencyNs   int64  `json:"latency_ns"`
	}
	var rec auditRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		return fmt.Errorf("audit record not JSON: %s", lines[0])
	}
	if rec.TraceID != traceID || rec.Op != "admit" || rec.Task != "example1" || !rec.Schedulable || rec.LatencyNs <= 0 || rec.Time == "" {
		return fmt.Errorf("audit record fields wrong: %s", lines[0])
	}
	// The rejection the flight recorder retained is in the audit trail too,
	// under the same trace ID: one incident, three cross-referenced views
	// (inline verdict, flight recorder, audit log).
	foundReject := false
	for _, line := range lines[1:] {
		var r auditRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return fmt.Errorf("audit record not JSON: %s", line)
		}
		if r.TraceID == rejectID {
			foundReject = true
			if r.Schedulable || r.Op != "admit" {
				return fmt.Errorf("rejection's audit record fields wrong: %s", line)
			}
		}
	}
	if !foundReject {
		return fmt.Errorf("audit log never mentions the rejection %s:\n%s", rejectID, auditData)
	}
	return nil
}

// waitForAddr polls an addrfile until the daemon binds, failing fast if the
// process dies first.
func waitForAddr(path string, exited <-chan error, out *bytes.Buffer) (string, error) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-exited:
			return "", fmt.Errorf("daemon exited before binding: %v; output:\n%s", err, out.String())
		default:
		}
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 {
			return "http://" + string(b), nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return "", fmt.Errorf("daemon never wrote %s; output:\n%s", path, out.String())
}

// sample returns the value of the unlabeled series name on an exposition page.
func sample(page, name string) (float64, error) {
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("no %s sample", name)
}

func fetch(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(data), nil
}
