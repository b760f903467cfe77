package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/modelio"
)

// serveSolve answers one /v1/solve in-process and returns the body.
func serveSolve(s *Server, req modelio.SolveRequest) (int, []byte) {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(b)))
	return rec.Code, rec.Body.Bytes()
}

// coldEncoding checks body against encoding/json's bytes for the same
// response: the body's own cached/elapsedMs (they vary per request) around
// the reference trajectory's first maxN rows.
func coldEncoding(body []byte, ref *core.Result, maxN int) error {
	var got modelio.SolveResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("maxN %d: decoding %q: %w", maxN, body, err)
	}
	view, err := ref.Prefix(maxN)
	if err != nil {
		return err
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(&modelio.SolveResponse{
		Cached: got.Cached, ElapsedMS: got.ElapsedMS, Trajectory: modelio.NewTrajectory(view, 0),
	}); err != nil {
		return err
	}
	if !bytes.Equal(body, want.Bytes()) {
		return fmt.Errorf("maxN %d: served bytes differ from a cold encode:\n got %q\nwant %q", maxN, body, want.Bytes())
	}
	return nil
}

func refTrajectory(t *testing.T, maxN int) *core.Result {
	t.Helper()
	sol, err := core.NewExactMVASolver(testModel())
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Run(maxN); err != nil {
		t.Fatal(err)
	}
	return sol.Result()
}

// TestSolveHitTextColumns: hits served from an entry's text columns are
// byte-identical to a cold encode at every maxN up to the cached N — also
// while another goroutine extends the entry and the estimate runtime's
// invalidation path removes it — and the columns are built by hits, never
// by the miss that solved the entry.
func TestSolveHitTextColumns(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	const primed, deepest = 60, 120
	ref := refTrajectory(t, deepest)
	req := modelio.SolveRequest{Algorithm: modelio.AlgoExact, Model: testModel(), MaxN: primed}
	if code, body := serveSolve(s, req); code != http.StatusOK {
		t.Fatalf("priming: %d %s", code, body)
	}
	norm := req
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	key, err := norm.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	entry := func() *cacheEntry {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		return s.cache.items[key]
	}
	if got := entry().text.Load().Rows(); got != 0 {
		t.Fatalf("the priming miss built %d text rows; columns are for hits", got)
	}
	for maxN := 1; maxN <= primed; maxN++ {
		req.MaxN = maxN
		code, body := serveSolve(s, req)
		if code != http.StatusOK || !bytes.HasPrefix(body, []byte(`{"cached":true`)) {
			t.Fatalf("maxN %d: want a cached 200, got %d %s", maxN, code, body)
		}
		if err := coldEncoding(body, ref, maxN); err != nil {
			t.Fatal(err)
		}
	}
	if got := entry().text.Load().Rows(); got != primed {
		t.Fatalf("text covers %d rows after hits up to %d", got, primed)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(2)
	go func() { // extend the entry one population at a time
		defer wg.Done()
		defer close(done)
		for n := primed + 1; n <= deepest; n++ {
			r := req
			r.MaxN = n
			if code, body := serveSolve(s, r); code != http.StatusOK {
				t.Errorf("extend to %d: %d %s", n, code, body)
				return
			}
		}
	}()
	go func() { // invalidate it as a refit would
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(200 * time.Microsecond):
				s.cache.remove(key)
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Populations past the entry's frontier extend it too, so the
			// text columns grow by appending under concurrent readers.
			for maxN := 1 + g; ; maxN = (maxN+6)%deepest + 1 {
				select {
				case <-done:
					return
				default:
				}
				r := req
				r.MaxN = maxN
				code, body := serveSolve(s, r)
				if code != http.StatusOK {
					t.Errorf("maxN %d: %d %s", maxN, code, body)
					return
				}
				if err := coldEncoding(body, ref, maxN); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSolveHitAllocsFlat: encoding a hit from built columns costs the same
// allocations at maxN=100 as at maxN=400 — copying text is O(1) in
// allocations, whatever the row count.
func TestSolveHitAllocsFlat(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	req := modelio.SolveRequest{Algorithm: modelio.AlgoExact, Model: testModel(), MaxN: 400}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	key, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if code, body := serveSolve(s, req); code != http.StatusOK {
		t.Fatalf("priming: %d %s", code, body)
	}
	hit := func(maxN int) *solved {
		res, e, ok := s.cache.peek(key, maxN)
		if !ok {
			t.Fatalf("maxN %d: no prefix hit", maxN)
		}
		return &solved{res: res, entry: e, hit: true, start: time.Now()}
	}
	buf := make([]byte, 0, 1<<20)
	allocs := map[int]float64{}
	for _, maxN := range []int{100, 400} {
		o := hit(maxN)
		allocs[maxN] = testing.AllocsPerRun(50, func() {
			if _, err := o.appendResponse(buf[:0], 0); err != nil {
				t.Fatal(err)
			}
		})
		if got := o.entry.text.Load().Rows(); got != 400 {
			t.Fatalf("text covers %d rows, want the entry's 400", got)
		}
	}
	if allocs[100] != allocs[400] {
		t.Errorf("allocs/op %v at maxN=100, %v at maxN=400; want equal", allocs[100], allocs[400])
	}
}

// TestSolveNonFiniteMatchesEncoder: a response holding a value encoding/json
// refuses is answered exactly as WriteJSON answers it — 200, JSON content
// type, empty body — with the same log line.
func TestSolveNonFiniteMatchesEncoder(t *testing.T) {
	res := refTrajectory(t, 5)
	res.X[2] = math.NaN()
	out := &solved{res: res, start: time.Now()}
	write := func(f func(s *Server, w http.ResponseWriter)) (*httptest.ResponseRecorder, string) {
		var log bytes.Buffer
		s := New(Config{Logger: slog.New(slog.NewTextHandler(&log, &slog.HandlerOptions{
			ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
				if a.Key == slog.TimeKey {
					return slog.Attr{}
				}
				return a
			},
		}))})
		rec := httptest.NewRecorder()
		f(s, rec)
		return rec, log.String()
	}
	got, gotLog := write(func(s *Server, w http.ResponseWriter) { s.writeSolved(w, out, 0) })
	want, wantLog := write(func(s *Server, w http.ResponseWriter) { s.WriteJSON(w, http.StatusOK, out.response(0)) })
	if got.Code != want.Code || got.Body.String() != want.Body.String() ||
		got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Errorf("non-finite response %d %q %q, encoding/json path %d %q %q",
			got.Code, got.Header().Get("Content-Type"), got.Body, want.Code, want.Header().Get("Content-Type"), want.Body)
	}
	if gotLog != wantLog || !strings.Contains(gotLog, "unsupported value: NaN") {
		t.Errorf("log %q, encoding/json path logs %q", gotLog, wantLog)
	}
}
