package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/modelio"
)

// workload is one traffic mix. Every input it produces comes from the seed
// given to prepare; solverd sees only the generated requests.
type workload interface {
	// prepare builds the streams and the in-process references, off the
	// clock.
	prepare(seed uint64, openN, closedN int) error
	// warm brings freshly started nodes to the workload's steady state
	// (cache priming, model registration); it is part of setup_s.
	warm(ctx context.Context, hc *http.Client, target string) error
	// streams returns the open-loop stream (with due times) and the
	// closed-loop stream.
	streams() (open, closed []*request)
	// check verifies one response; it may keep state per connection.
	check(req *request, rec *record, body []byte) error
	// verify runs the checks that need the timed phases to be over.
	verify(ctx context.Context, hc *http.Client, target string) error
	// replay runs the first n open-loop requests in-process, through each
	// layer's public functions, recording spans on t. Each pass gets a
	// fresh in-process server.
	replay(t *tracer, n int) (*replayState, corePerPop, error)
}

// routed is a workload whose requests a fleet routes by a few cache keys;
// the fleet is laid out to split them evenly between its nodes.
type routed interface {
	routingKeys() []string
}

// spec is a workload's fixed description.
type spec struct {
	name string
	why  string
	// nodes is how many solverd processes serve it; requests enter the
	// first.
	nodes int
	// rate is the open-loop offered rate in requests per second, chosen
	// well below the reference box's capacity for the mix so the open
	// phase builds no growing backlog.
	rate float64
	// closedRate over-estimates the closed-loop rate, to size that
	// phase's pre-generated stream.
	closedRate float64
	// replayN is how many open-loop requests the traced run replays.
	replayN int
	make    func() workload
}

// workloads is the benchmark's set of traffic mixes, in BENCHMARK.json
// order.
var workloads = []spec{
	{
		name:  "hot-hits",
		why:   "repeated solves of 32 primed models: modelio encode and the server hit path dominate and core does no work",
		nodes: 1, rate: 400, closedRate: 10000, replayN: 2000,
		make: func() workload { return &hotHits{} },
	},
	{
		name:  "cold-solves",
		why:   "every request is new solver work with twins and sweeps: core and the worker pool dominate and the LRU fills",
		nodes: 1, rate: 180, closedRate: 2000, replayN: 200,
		make: func() workload { return &coldSolves{} },
	},
	{
		name:  "observe-mix",
		why:   "estimation writes beside what-if reads: refits and snapshot invalidations churn the same solve cache",
		nodes: 1, rate: 300, closedRate: 20000, replayN: 800,
		make: func() workload { return &observeMix{} },
	},
	{
		name:  "fleet-hits",
		why:   "the hot-hits stream entering one node of a two-node fabric: isolates the cluster route and forward hop",
		nodes: 2, rate: 300, closedRate: 8000, replayN: 2000,
		make: func() workload { return &hotHits{} },
	},
}

func lookupWorkload(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// poissonDue assigns open-loop due times: exponential gaps at rate per
// second, the arrivals of independent users.
func poissonDue(seed uint64, reqs []*request, rate float64) {
	r := rng(seed, 99)
	t := 0.0
	for i, req := range reqs {
		if i > 0 && req.twin {
			req.due = reqs[i-1].due
			continue
		}
		t += r.ExpFloat64() / rate
		req.due = time.Duration(t * float64(time.Second))
	}
}

// call sends one request outside the timed phases and decodes its JSON
// reply into out.
func call(ctx context.Context, hc *http.Client, target, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+target+path, rd)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, b)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// mustJSON encodes generated inputs, which always encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// refSolve solves a normalized request in-process with a fresh core solver
// configured as solverd configures it, returning the result and the solver
// run time.
func refSolve(req *modelio.SolveRequest) (*core.Result, time.Duration, error) {
	var sol *core.Solver
	var err error
	switch req.Algorithm {
	case modelio.AlgoExact:
		sol, err = core.NewExactMVASolver(req.Model)
	case modelio.AlgoMultiServer:
		sol, err = core.NewMultiServerSolver(req.Model, core.MultiServerOptions{TraceStation: -1})
	case modelio.AlgoMVASD:
		var dm core.DemandModel
		if dm, err = req.DemandModel(); err == nil {
			sol, err = core.NewMVASDSolver(req.Model, dm, core.MVASDOptions{})
		}
	default:
		err = fmt.Errorf("no reference solver for %q", req.Algorithm)
	}
	if err != nil {
		return nil, 0, err
	}
	defer sol.Release()
	if req.Decimate > 1 {
		if err := sol.Decimate(req.Decimate); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	if err := sol.Run(req.MaxN); err != nil {
		return nil, 0, err
	}
	return sol.Result(), time.Since(start), nil
}

// sameTrajectory compares two trajectories float for float (bit patterns,
// so -0 and NaN never pass as equal by accident).
func sameTrajectory(got, want *modelio.Trajectory) error {
	if got == nil || want == nil {
		return fmt.Errorf("missing trajectory")
	}
	if got.Algorithm != want.Algorithm || got.ModelName != want.ModelName || got.MaxXAt != want.MaxXAt {
		return fmt.Errorf("trajectory header differs: %s/%s/%d vs %s/%s/%d",
			got.Algorithm, got.ModelName, got.MaxXAt, want.Algorithm, want.ModelName, want.MaxXAt)
	}
	if len(got.N) != len(want.N) {
		return fmt.Errorf("trajectory has %d rows, want %d", len(got.N), len(want.N))
	}
	for i := range got.N {
		if got.N[i] != want.N[i] {
			return fmt.Errorf("row %d population %d, want %d", i, got.N[i], want.N[i])
		}
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"x", got.X, want.X}, {"r", got.R, want.R}, {"cycle", got.Cycle, want.Cycle},
		{"finalUtil", got.FinalUtil, want.FinalUtil}, {"finalQueueLen", got.FinalQueueLen, want.FinalQueueLen},
		{"maxX", []float64{got.MaxX, got.ThinkTime}, []float64{want.MaxX, want.ThinkTime}},
	} {
		if len(c.got) != len(c.want) {
			return fmt.Errorf("%s has %d values, want %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.got {
			if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
				return fmt.Errorf("%s[%d] = %v, reference %v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
	return nil
}
