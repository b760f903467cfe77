package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"

	"repro/internal/modelio"
	"repro/internal/queueing"
)

// coldItem is the benchmark's record of one cold-solves request.
type coldItem struct {
	solve *modelio.SolveRequest // normalized; nil for a sweep
	sweep *modelio.SweepRequest // normalized; nil for a solve
	// sampled requests are re-solved in-process after the timed phases;
	// got holds what the server returned for them.
	sampled bool
	got     *modelio.Trajectory
}

// coldSolves sends new solver work on every request.
type coldSolves struct {
	slot   int     // next mix slot
	golden float64 // position in the maxN sequence
	items  []*coldItem
	open   []*request
	closed []*request
	mu     sync.Mutex // guards items[*].got between the checker and verify
}

func (c *coldSolves) prepare(seed uint64, openN, closedN int) error {
	r := rng(seed, 3)
	c.golden = r.Float64()
	c.open = c.generate(r, openN)
	c.closed = c.generate(r, closedN)
	return nil
}

// generate draws n requests (twins included in the count). The mix is
// laid out by slot rather than drawn, and maxN follows a golden-ratio
// sequence, so every run carries the same share of deep solves, sweeps and
// twins and the same spread of sizes; the seed picks the models.
func (c *coldSolves) generate(r *rand.Rand, n int) []*request {
	out := make([]*request, 0, n)
	for len(out) < n {
		i := c.slot
		c.slot++
		model := coldModel(r, fmt.Sprintf("cold-%d", len(c.items)))
		switch {
		case i%8 == 3: // 1 in 8: a 2×2 thinkTime × servers sweep
			out = append(out, c.add(c.sweep(r, model), false))
		case i%16 == 7: // 1 in 16: a decimated deep solve
			// A fixed shape, so the deep solves' cost (which sets the
			// tail) does not swing with the drawn server counts.
			model := deepModel(r, model.Name)
			req := c.solve(r, model, 100_000, deepAlgs[(i/16)%len(deepAlgs)])
			req.Decimate = 100
			req.Every = 20
			out = append(out, c.add(req, false))
		default:
			c.golden = math.Mod(c.golden+0.6180339887498949, 1)
			maxN := int(1e3 * math.Pow(10, c.golden))
			req := c.solve(r, model, maxN, solveAlgs[i%len(solveAlgs)])
			out = append(out, c.add(req, r.IntN(16) == 0))
			if i%4 == 1 && len(out) < n { // an overlapping twin
				twin := *req
				twin.MaxN = int(float64(maxN) * uniform(r, 0.5, 0.9))
				twin.Every = everyFor(r, twin.MaxN)
				tw := c.add(&twin, r.IntN(16) == 0)
				tw.twin = true
				out = append(out, tw)
			}
		}
	}
	return out
}

// solveAlgs is the algorithm of each plain-solve slot (3 exact : 4
// multiserver : 3 mvasd); deepAlgs rotates through the deep solves.
var (
	solveAlgs = []string{
		modelio.AlgoExact, modelio.AlgoMultiServer, modelio.AlgoMVASD, modelio.AlgoMultiServer, modelio.AlgoExact,
		modelio.AlgoMVASD, modelio.AlgoMultiServer, modelio.AlgoExact, modelio.AlgoMVASD, modelio.AlgoMultiServer,
	}
	deepAlgs = []string{modelio.AlgoExact, modelio.AlgoMultiServer, modelio.AlgoMVASD}
)

// everyFor thins a trajectory of maxN rows to 20–50 rows.
func everyFor(r *rand.Rand, maxN int) int {
	return int(math.Ceil(float64(maxN) / float64(20+r.IntN(31))))
}

func (c *coldSolves) solve(r *rand.Rand, model *queueing.Model, maxN int, alg string) *modelio.SolveRequest {
	req := &modelio.SolveRequest{Algorithm: alg, Model: model, MaxN: maxN, Every: everyFor(r, maxN)}
	if alg == modelio.AlgoMVASD {
		curves := make([]decayingDemand, len(model.Stations))
		for k, st := range model.Stations {
			curves[k] = decayingDemand{d0: st.Demand(), floor: uniform(r, 0.5, 0.8),
				tau: uniform(r, 0.1, 0.5) * float64(maxN)}
		}
		samples, err := chebyshevSamples(model, curves, maxN, 3)
		if err != nil {
			panic(err) // three nodes on [1, maxN ≥ 1000] always exist
		}
		req.Samples = samples
	}
	return req
}

func (c *coldSolves) sweep(r *rand.Rand, model *queueing.Model) *modelio.SweepRequest {
	maxN := int(logUniform(r, 1e3, 5e3))
	alg := modelio.AlgoExact
	if r.IntN(2) == 0 {
		alg = modelio.AlgoMultiServer
	}
	z := model.ThinkTime
	s0 := model.Stations[0]
	return &modelio.SweepRequest{
		SolveRequest: modelio.SolveRequest{Algorithm: alg, Model: model},
		Populations:  []int{maxN / 4, maxN / 2, maxN},
		ThinkTimes:   []float64{z, 2 * z},
		Servers:      map[string][]int{s0.Name: {s0.Servers, s0.Servers + 1 + r.IntN(4)}},
	}
}

// add encodes a generated request and records its check data.
func (c *coldSolves) add(v any, sampled bool) *request {
	it := &coldItem{sampled: sampled}
	req := &request{method: http.MethodPost, body: mustJSON(v), ref: len(c.items), solveShaped: true}
	switch v := v.(type) {
	case *modelio.SolveRequest:
		req.path = "/v1/solve"
		cp := *v
		if err := cp.Normalize(); err != nil {
			panic(err) // generated requests are valid by construction
		}
		it.solve = &cp
	case *modelio.SweepRequest:
		req.path = "/v1/sweep"
		cp := *v
		if err := cp.Normalize(); err != nil {
			panic(err)
		}
		it.sweep = &cp
	}
	c.items = append(c.items, it)
	return req
}

func (c *coldSolves) streams() (open, closed []*request) { return c.open, c.closed }

func (c *coldSolves) warm(context.Context, *http.Client, string) error { return nil }

// throughputBound is min_k C_k/D_k, the asymptotic throughput limit every
// constant-demand solution must respect (single-server exact MVA treats
// every station as one server).
func throughputBound(m *queueing.Model, alg string) float64 {
	b := math.Inf(1)
	for _, st := range m.Stations {
		servers := float64(st.Servers)
		if alg == modelio.AlgoExact {
			servers = 1
		}
		b = math.Min(b, servers/st.Demand())
	}
	return b
}

// checkRows applies Little's law, N = X·(R+Z), to every row and the
// throughput bound to constant-demand algorithms.
func checkRows(alg string, m *queueing.Model, z float64, ns []int, x, resp, cycle []float64) error {
	if len(ns) == 0 || len(x) != len(ns) || len(resp) != len(ns) || len(cycle) != len(ns) {
		return fmt.Errorf("ragged or empty trajectory")
	}
	bound := throughputBound(m, alg)
	for i, n := range ns {
		if got := x[i] * (resp[i] + z); math.Abs(got-float64(n)) > 1e-9*float64(n) {
			return fmt.Errorf("row N=%d breaks Little's law: X·(R+Z) = %v", n, got)
		}
		if math.Abs(cycle[i]-(resp[i]+z)) > 1e-9*cycle[i] {
			return fmt.Errorf("row N=%d: cycle %v != R+Z %v", n, cycle[i], resp[i]+z)
		}
		if alg != modelio.AlgoMVASD && x[i] > bound*(1+1e-9) {
			return fmt.Errorf("row N=%d: X = %v exceeds min C/D = %v", n, x[i], bound)
		}
	}
	return nil
}

func (c *coldSolves) check(req *request, _ *record, body []byte) error {
	it := c.items[req.ref]
	if it.sweep != nil {
		return checkSweep(it.sweep, body)
	}
	var resp modelio.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding solve response: %w", err)
	}
	t := resp.Trajectory
	if t == nil || len(t.N) == 0 || t.N[len(t.N)-1] != it.solve.MaxN {
		return fmt.Errorf("solve response does not end at maxN %d", it.solve.MaxN)
	}
	if err := checkRows(it.solve.Algorithm, it.solve.Model, it.solve.Model.ThinkTime, t.N, t.X, t.R, t.Cycle); err != nil {
		return err
	}
	if it.sampled {
		c.mu.Lock()
		it.got = t
		c.mu.Unlock()
	}
	return nil
}

func checkSweep(sw *modelio.SweepRequest, body []byte) error {
	var resp modelio.SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding sweep response: %w", err)
	}
	points, err := sw.Expand(0)
	if err != nil {
		return err
	}
	if resp.GridSize != len(points) || len(resp.Points) != len(points) {
		return fmt.Errorf("sweep returned %d of %d points", len(resp.Points), len(points))
	}
	for i, p := range resp.Points {
		if p.Error != "" {
			return fmt.Errorf("sweep point %d: %s", i, p.Error)
		}
		if len(p.Rows) != len(sw.Populations) {
			return fmt.Errorf("sweep point %d has %d rows, want %d", i, len(p.Rows), len(sw.Populations))
		}
		pr := sw.PointRequest(points[i])
		ns := make([]int, len(p.Rows))
		x, r, cy := make([]float64, len(p.Rows)), make([]float64, len(p.Rows)), make([]float64, len(p.Rows))
		for j, row := range p.Rows {
			if row.N != sw.Populations[j] {
				return fmt.Errorf("sweep point %d row %d is N=%d, want %d", i, j, row.N, sw.Populations[j])
			}
			ns[j], x[j], r[j], cy[j] = row.N, row.X, row.R, row.Cycle
		}
		if err := checkRows(sw.Algorithm, pr.Model, pr.Model.ThinkTime, ns, x, r, cy); err != nil {
			return fmt.Errorf("sweep point %d: %w", i, err)
		}
	}
	return nil
}

// verify re-solves the sampled requests in-process and compares each
// returned trajectory float for float.
func (c *coldSolves) verify(context.Context, *http.Client, string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, it := range c.items {
		if !it.sampled || it.got == nil {
			continue
		}
		ref, _, err := refSolve(it.solve)
		if err != nil {
			return err
		}
		if err := sameTrajectory(it.got, modelio.NewTrajectory(ref, it.solve.Every)); err != nil {
			return fmt.Errorf("cold-solves request %d re-solved in-process: %w", i, err)
		}
	}
	return nil
}

func (c *coldSolves) replay(t *tracer, n int) (*replayState, corePerPop, error) {
	st := &replayState{srv: inProcessServer()}
	pops := corePerPop{}
	for i := 0; i < n && i < len(c.open); i++ {
		req := c.open[i]
		it := c.items[req.ref]
		if it.sweep != nil {
			if err := st.timed(t, i, func() error { return st.sweepLayers(t, req.body) }); err != nil {
				return nil, nil, err
			}
			continue
		}
		_, d, err := refSolve(it.solve)
		if err != nil {
			return nil, nil, err
		}
		pops.add(it.solve.Algorithm, d, it.solve.MaxN)
		if err := st.timed(t, i, func() error { return st.solveLayers(t, req.body, d) }); err != nil {
			return nil, nil, err
		}
	}
	return st, pops, nil
}

// sweepLayers runs one /v1/sweep body through decode, the admission gate,
// Server.Sweep and the response encode.
func (st *replayState) sweepLayers(t *tracer, body []byte) error {
	var req modelio.SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	if err := req.Normalize(); err != nil {
		return err
	}
	st.srv.Admission().Evaluate()
	s := t.mark()
	ctx, cancel := st.srv.SolveContext(context.Background(), req.TimeoutMS)
	resp, err := st.srv.Sweep(ctx, &req)
	cancel()
	if err != nil {
		return err
	}
	t.end("server.sweep", s)
	return json.NewEncoder(io.Discard).Encode(resp)
}
