package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/modelio"
	"repro/internal/queueing"
)

const (
	hotModels = 32
	hotMaxN   = 400
)

// hotMaxNs are the populations hot-hits asks for: every one is at most the
// primed hotMaxN, so each request is an exact or prefix hit.
var hotMaxNs = func() []int {
	var ns []int
	for n := 100; n <= hotMaxN; n += 10 {
		ns = append(ns, n)
	}
	return ns
}()

// hotHits repeats full-trajectory solves of a few primed three-tier models.
type hotHits struct {
	models []*queueing.Model
	keys   []string       // per model, the cache key its requests route by
	refs   []*core.Result // per model, solved in-process to hotMaxN
	// bodies[m*len(hotMaxNs)+j] asks for model m at hotMaxNs[j]; expect
	// holds the reference trajectory's JSON for the same index.
	bodies [][]byte
	expect [][]byte
	open   []*request
	closed []*request
}

func (h *hotHits) prepare(seed uint64, openN, closedN int) error {
	r := rng(seed, 1)
	for m := 0; m < hotModels; m++ {
		model := threeTierModel(r, fmt.Sprintf("tier3-%d", m))
		req := &modelio.SolveRequest{Algorithm: modelio.AlgoMultiServer, Model: model, MaxN: hotMaxN}
		if err := req.Normalize(); err != nil {
			return err
		}
		ref, _, err := refSolve(req)
		if err != nil {
			return err
		}
		key, err := req.CacheKey()
		if err != nil {
			return err
		}
		h.models = append(h.models, model)
		h.keys = append(h.keys, key)
		h.refs = append(h.refs, ref)
		for _, n := range hotMaxNs {
			view, err := ref.PrefixPop(n)
			if err != nil {
				return err
			}
			h.bodies = append(h.bodies, mustJSON(&modelio.SolveRequest{
				Algorithm: modelio.AlgoMultiServer, Model: model, MaxN: n}))
			h.expect = append(h.expect, mustJSON(modelio.NewTrajectory(view, 0)))
		}
	}
	pick := rng(seed, 2)
	gen := func(n int) []*request {
		out := make([]*request, n)
		for i := range out {
			k := pick.IntN(len(h.bodies))
			out[i] = &request{method: http.MethodPost, path: "/v1/solve", body: h.bodies[k], ref: k, solveShaped: true}
		}
		return out
	}
	h.open, h.closed = gen(openN), gen(closedN)
	return nil
}

func (h *hotHits) streams() (open, closed []*request) { return h.open, h.closed }

func (h *hotHits) routingKeys() []string { return h.keys }

// warm primes every model at hotMaxN through the entry node (in a fleet the
// entry node forwards each to its owner, which caches it).
func (h *hotHits) warm(ctx context.Context, hc *http.Client, target string) error {
	for m := range h.models {
		var resp modelio.SolveResponse
		k := m*len(hotMaxNs) + len(hotMaxNs) - 1
		if err := call(ctx, hc, target, http.MethodPost, "/v1/solve", h.bodies[k], &resp); err != nil {
			return fmt.Errorf("priming model %d: %w", m, err)
		}
		if resp.Trajectory == nil || len(resp.Trajectory.N) != hotMaxN {
			return fmt.Errorf("priming model %d: short trajectory", m)
		}
	}
	return nil
}

var trajectoryField = []byte(`"trajectory":`)

// check compares the returned trajectory with the in-process reference. The
// common case is a byte match of the trajectory object; anything else is
// decoded and compared float for float, so an encoder that spells the same
// floats differently still passes.
func (h *hotHits) check(req *request, _ *record, body []byte) error {
	want := h.expect[req.ref]
	if i := bytes.Index(body, trajectoryField); i >= 0 {
		got := bytes.TrimRight(body[i+len(trajectoryField):], "\n")
		if len(got) > 0 && bytes.Equal(got[:len(got)-1], want) {
			return nil
		}
	}
	var resp modelio.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding solve response: %w", err)
	}
	var ref modelio.Trajectory
	if err := json.Unmarshal(want, &ref); err != nil {
		return err
	}
	if err := sameTrajectory(resp.Trajectory, &ref); err != nil {
		return fmt.Errorf("hot-hits request %d: %w", req.ref, err)
	}
	return nil
}

func (h *hotHits) verify(context.Context, *http.Client, string) error { return nil }

func (h *hotHits) replay(t *tracer, n int) (*replayState, corePerPop, error) {
	st := &replayState{srv: inProcessServer()}
	pops := corePerPop{}
	t.req = -1
	for m, model := range h.models {
		// Re-time the reference next to the server's miss, so both run
		// with the same warm caches.
		_, d, err := refSolve(&modelio.SolveRequest{Algorithm: modelio.AlgoMultiServer, Model: model, MaxN: hotMaxN})
		if err != nil {
			return nil, nil, err
		}
		pops.add(modelio.AlgoMultiServer, d, hotMaxN)
		k := m*len(hotMaxNs) + len(hotMaxNs) - 1
		if err := st.solveLayers(t, h.bodies[k], d); err != nil {
			return nil, nil, err
		}
	}
	for i := 0; i < n && i < len(h.open); i++ {
		k := h.open[i].ref
		if err := st.timed(t, i, func() error { return st.solveLayers(t, h.bodies[k], 0) }); err != nil {
			return nil, nil, err
		}
	}
	return st, pops, nil
}
