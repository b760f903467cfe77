package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/modelio"
	"repro/internal/telemetry"
)

// syncBuffer makes a bytes.Buffer safe for the concurrent handler goroutines
// of an httptest server.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func postJSONWithHeader(t *testing.T, url, requestID string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestTracedSolveRequest drives the acceptance scenario: a cache-miss solve
// with a caller-supplied X-Request-Id must echo the ID, carry a Server-Timing
// header with cache and solve phases, emit one access-log line with the trace
// ID and cache outcome, and emit debug span events sharing the same ID.
func TestTracedSolveRequest(t *testing.T) {
	logBuf := &syncBuffer{}
	logger := slog.New(slog.NewTextHandler(logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, Config{Logger: logger})

	const id = "trace-test-0001"
	resp := postJSONWithHeader(t, ts.URL+"/v1/solve", id,
		modelio.SolveRequest{Model: testModel(), MaxN: 50})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != id {
		t.Errorf("X-Request-Id = %q, want %q", got, id)
	}
	st := resp.Header.Get("Server-Timing")
	if !strings.Contains(st, "cache;dur=") || !strings.Contains(st, "solve;dur=") {
		t.Errorf("Server-Timing = %q, want cache and solve phases", st)
	}

	// The middleware writes the access-log line after the response reaches
	// the client, so wait (bounded) for it before reading the log.
	awaitLog(logBuf, "msg=request", 1)
	logs := logBuf.String()
	if got := strings.Count(logs, "msg=request"); got != 1 {
		t.Errorf("access log lines = %d, want 1; logs:\n%s", got, logs)
	}
	accessLine := ""
	spanLines := 0
	for _, line := range strings.Split(logs, "\n") {
		if strings.Contains(line, "msg=request") {
			accessLine = line
		}
		if strings.Contains(line, "msg=span") {
			spanLines++
			if !strings.Contains(line, "id="+id) {
				t.Errorf("span event without the request's trace ID: %q", line)
			}
		}
	}
	for _, want := range []string{"id=" + id, "handler=solve", "status=200", "cache=miss", "algorithm=multiserver", "dur_ms="} {
		if !strings.Contains(accessLine, want) {
			t.Errorf("access log %q missing %q", accessLine, want)
		}
	}
	// At least the cache and solve spans were logged at debug.
	if spanLines < 2 {
		t.Errorf("span events = %d, want >= 2; logs:\n%s", spanLines, logs)
	}

	// Same request again: a hit, answered without a solve span.
	resp = postJSONWithHeader(t, ts.URL+"/v1/solve", "trace-test-0002",
		modelio.SolveRequest{Model: testModel(), MaxN: 50})
	if got := resp.Header.Get("X-Request-Id"); got != "trace-test-0002" {
		t.Errorf("second X-Request-Id = %q", got)
	}
	st = resp.Header.Get("Server-Timing")
	if !strings.Contains(st, "cache;dur=") || strings.Contains(st, "solve;dur=") {
		t.Errorf("hit Server-Timing = %q, want cache phase only", st)
	}
	awaitLog(logBuf, "msg=request", 2)
	if !strings.Contains(logBuf.String(), "cache=hit") {
		t.Errorf("hit outcome missing from access log:\n%s", logBuf.String())
	}

	// Larger population on the same model: an in-place extension.
	postJSONWithHeader(t, ts.URL+"/v1/solve", "trace-test-0003",
		modelio.SolveRequest{Model: testModel(), MaxN: 80})
	awaitLog(logBuf, "msg=request", 3)
	if !strings.Contains(logBuf.String(), "cache=extend") {
		t.Errorf("extend outcome missing from access log:\n%s", logBuf.String())
	}
}

// awaitLog waits up to 5 s until buf holds at least n lines containing substr.
func awaitLog(buf *syncBuffer, substr string, n int) {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if strings.Count(buf.String(), substr) >= n {
			return
		}
	}
}

// TestRequestIDGeneratedWhenMissingOrInvalid covers server-minted IDs.
func TestRequestIDGeneratedWhenMissingOrInvalid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, supplied := range []string{"", "bad id with spaces", strings.Repeat("x", 100)} {
		resp := postJSONWithHeader(t, ts.URL+"/v1/solve", supplied,
			modelio.SolveRequest{Model: testModel(), MaxN: 10})
		got := resp.Header.Get("X-Request-Id")
		if got == supplied && supplied != "" {
			t.Errorf("invalid ID %q was accepted", supplied)
		}
		if !telemetry.ValidID(got) {
			t.Errorf("generated ID %q is not valid", got)
		}
	}
}

// TestStatusEndpoint exercises GET /v1/status after a cached solve.
func TestStatusEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/solve", modelio.SolveRequest{
		Algorithm: modelio.AlgoExact, Model: testModel(), MaxN: 30})

	resp, body := getBody(t, ts.URL+"/v1/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var status statusResponse
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if status.Service != "solverd" || status.GoVersion == "" || status.Revision == "" {
		t.Errorf("build info: %+v", status)
	}
	if status.UptimeSeconds < 0 || status.Workers < 1 {
		t.Errorf("uptime/workers: %+v", status)
	}
	if len(status.Cache) != 1 {
		t.Fatalf("cache entries = %d, want 1: %s", len(status.Cache), body)
	}
	e := status.Cache[0]
	if e.Key == "" || e.Algorithm != "exact-mva" || e.Population != 30 || e.LastAccess.IsZero() {
		t.Errorf("cache entry: %+v", e)
	}
	if len(status.InFlight) != 0 {
		t.Errorf("in-flight solves = %v, want none", status.InFlight)
	}

	// Method enforcement rides the shared middleware.
	r, err := http.Post(ts.URL+"/v1/status", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/status = %d", r.StatusCode)
	}
}

// TestStatusReportsInFlightSolve holds a solve in the worker and checks that
// /v1/status and the solverd_solve_progress gauge see it.
func TestStatusReportsInFlightSolve(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	started := make(chan struct{})
	release := make(chan struct{})
	s.testHookSolveStart = func(context.Context) {
		close(started)
		<-release
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		postJSONWithHeader(t, ts.URL+"/v1/solve", "inflight-test",
			modelio.SolveRequest{Model: testModel(), MaxN: 40})
	}()
	<-started

	_, body := getBody(t, ts.URL+"/v1/status")
	var status statusResponse
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatalf("decoding %q: %v", body, err)
	}
	if len(status.InFlight) != 1 {
		t.Fatalf("in-flight = %v, want 1 entry", status.InFlight)
	}
	f := status.InFlight[0]
	if f.ID != "inflight-test" || f.TargetN != 40 || f.Algorithm != "exact-mva-multiserver" {
		t.Errorf("in-flight entry: %+v", f)
	}

	_, metrics := getBody(t, ts.URL+"/metrics")
	want := `solverd_solve_progress{id="inflight-test",algorithm="exact-mva-multiserver",target="40"}`
	if !strings.Contains(metrics, want) {
		t.Errorf("metrics missing %q", want)
	}

	close(release)
	<-done

	// Finished runs leave both views.
	_, body = getBody(t, ts.URL+"/v1/status")
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	if len(status.InFlight) != 0 {
		t.Errorf("in-flight after completion = %v", status.InFlight)
	}
}
