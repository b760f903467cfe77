package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/modelio"
	"repro/internal/server"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the program itself is not instrumented).
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer records spans in memory when on; off, its calls cost one branch,
// which is how the untraced replay measures the tracing overhead.
type tracer struct {
	on    bool
	t0    time.Time
	req   int
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// mark returns the start of a span.
func (t *tracer) mark() int64 {
	if !t.on {
		return 0
	}
	return int64(time.Since(t.t0))
}

// end records the span name from start to now under the current request.
func (t *tracer) end(name string, start int64) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{Req: t.req, Name: name, Parent: "request", Start: start, End: int64(time.Since(t.t0))})
}

// durationsUS returns the durations of every span with the given name, in
// microseconds.
func (t *tracer) durationsUS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// p50US is the median duration of the named spans, 0 when there are none.
func (t *tracer) p50US(name string) float64 {
	d := t.durationsUS(name)
	if len(d) == 0 {
		return 0
	}
	return median(d)
}

// write stores the spans as JSON lines, one span per line, so they can be
// inspected after the run.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inProcessServer is a solverd server built in the benchmark's process, with
// its log discarded, for the traced replay.
func inProcessServer() *server.Server {
	return server.New(server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
}

// replayState is what one replay pass accumulates beyond its spans.
type replayState struct {
	srv *server.Server
	// reqUS is each replayed stream request's whole in-process time.
	reqUS []float64
	// missOverheadUS is Server.Solve time on a miss minus the core run time
	// of the same request.
	missOverheadUS []float64
	// refitMS is the time of each system check that re-fit the estimator.
	refitMS []float64
}

// solveLayers runs one /v1/solve body through the layers' public functions
// in request order: decode and Normalize, CacheKey, the admission gate,
// Server.Solve (which builds the trajectory with modelio.NewTrajectory, so
// that time counts in server.hit), and the JSON encode of the response it
// returned, as the handler writes it. refDur is the in-process core run
// time of the request, which a miss's overhead is measured against.
func (st *replayState) solveLayers(t *tracer, body []byte, refDur time.Duration) error {
	s := t.mark()
	var req modelio.SolveRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}
	if err := req.Normalize(); err != nil {
		return fmt.Errorf("replay normalize: %w", err)
	}
	t.end("modelio.decode", s)
	s = t.mark()
	if _, err := req.CacheKey(); err != nil {
		return err
	}
	t.end("modelio.key", s)
	s = t.mark()
	st.srv.Admission().Evaluate()
	t.end("admission.evaluate", s)
	s = t.mark()
	ctx, cancel := st.srv.SolveContext(context.Background(), req.TimeoutMS)
	solveStart := time.Now()
	resp, err := st.srv.Solve(ctx, &req)
	solveDur := time.Since(solveStart)
	cancel()
	if err != nil {
		return fmt.Errorf("replay solve: %w", err)
	}
	if resp.Cached {
		t.end("server.hit", s)
	} else {
		t.end("server.miss", s)
		st.missOverheadUS = append(st.missOverheadUS, float64(solveDur-refDur)/1e3)
	}
	s = t.mark()
	if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
		return err
	}
	t.end("modelio.encode", s)
	return nil
}

// timed runs one stream request and records its whole in-process time.
func (st *replayState) timed(t *tracer, req int, f func() error) error {
	t.req = req
	start := time.Now()
	err := f()
	st.reqUS = append(st.reqUS, float64(time.Since(start))/1e3)
	return err
}

// corePerPop accumulates solver run time per committed population, by
// algorithm, for the core.ns_per_pop metrics.
type corePerPop map[string][2]float64 // algorithm → {ns, populations}

func (c corePerPop) add(alg string, d time.Duration, pops int) {
	v := c[alg]
	v[0] += float64(d)
	v[1] += float64(pops)
	c[alg] = v
}

func (c corePerPop) nsPerPop(alg string) float64 {
	v := c[alg]
	if v[1] == 0 {
		return 0
	}
	return v[0] / v[1]
}

// sortedKeys returns m's keys in order (for stable report output).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
