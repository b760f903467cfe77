package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chebyshev"
	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/modelio"
	"repro/internal/queueing"
)

const (
	observeMaxConc = 200 // concurrency range the ground truth is sampled on
	observeCells   = 6   // Chebyshev concurrencies per batch
	observeWarm    = 12  // batches that bootstrap the first fit (MinSamples is 8)
	driftEvery     = 100 // observe batches between demand shifts
	driftScale     = 1.15
	whatIfMaxN     = 300
)

// whatIfKey is one distinct /v1/whatif query.
type whatIfKey struct {
	station string
	util    float64
	// override, when set, is "station=count".
	override string
}

// whatIfKeys are the ≈8 distinct what-if questions the reads ask.
var whatIfKeys = []whatIfKey{
	{"web/cpu", 0.9, ""}, {"app/cpu", 0.9, ""}, {"db/disk", 0.9, ""},
	{"web/cpu", 0.9, "web/cpu=8"}, {"app/cpu", 0.8, "app/cpu=8"},
	{"db/disk", 0.8, "db/disk=2"}, {"app/cpu", 0.7, ""}, {"db/disk", 0.95, "web/cpu=8"},
}

func (k whatIfKey) path() string {
	q := url.Values{}
	q.Set("station", k.station)
	q.Set("util", fmt.Sprint(k.util))
	q.Set("maxN", fmt.Sprint(whatIfMaxN))
	if k.override != "" {
		q.Set("servers", k.override)
	}
	return "/v1/whatif?" + q.Encode()
}

// request kinds of observe-mix (request.ref indexes items).
const (
	kindObserve = iota
	kindWhatIf
	kindDemands
)

type observeItem struct {
	kind  int
	batch *modelio.ObserveRequest // kindObserve
	key   int                     // kindWhatIf: index into whatIfKeys
}

// observeMix interleaves estimation writes with what-if and demands reads
// against a ground truth whose demands shift on a fixed schedule.
type observeMix struct {
	model  *queueing.Model
	curves []decayingDemand
	cells  []int
	// truthX[p][n] is the true throughput at concurrency n in drift phase p
	// (0: base demands, 1: scaled by driftScale).
	truthX [2][]float64
	warmB  [][]byte
	items  []*observeItem
	open   []*request
	closed []*request
	noise  *rand.Rand

	mu      sync.Mutex
	version map[int]uint64 // last snapshot version seen per connection
}

func (o *observeMix) prepare(seed uint64, openN, closedN int) error {
	r := rng(seed, 4)
	o.noise = r
	// The disk saturates well inside the sampled concurrency range, so a
	// demand shift moves the measured throughput past the 3% bound.
	o.model = &queueing.Model{Name: "observed", ThinkTime: uniform(r, 0.1, 0.3), Stations: []queueing.Station{
		{Name: "web/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: uniform(r, 0.005, 0.01)},
		{Name: "app/cpu", Kind: queueing.CPU, Servers: 4, Visits: 1, ServiceTime: uniform(r, 0.008, 0.015)},
		{Name: "db/disk", Kind: queueing.Disk, Servers: 1, Visits: 1, ServiceTime: uniform(r, 0.004, 0.006)},
	}}
	for _, st := range o.model.Stations {
		o.curves = append(o.curves, decayingDemand{d0: st.Demand(), floor: uniform(r, 0.5, 0.8), tau: uniform(r, 20, 80)})
	}
	cells, err := chebyshev.IntegerNodesOn(1, observeMaxConc, observeCells)
	if err != nil {
		return err
	}
	o.cells = cells
	for p, scale := range []float64{1, driftScale} {
		dm := core.FuncDemands{K: len(o.curves), F: func(k, n int) float64 { return scale * o.curves[k].at(float64(n)) }}
		sol, err := core.NewMVASDSolver(o.model, dm, core.MVASDOptions{})
		if err != nil {
			return err
		}
		if err := sol.Run(observeMaxConc); err != nil {
			return err
		}
		o.truthX[p] = append([]float64(nil), sol.Result().X...)
		sol.Release()
	}
	for b := 0; b < observeWarm; b++ {
		batch := o.batch(0, b%observeCells)
		if b == 0 {
			batch.Model = o.model
		}
		if b == observeWarm-1 {
			batch.Fit = true
		}
		o.warmB = append(o.warmB, mustJSON(batch))
	}
	mix := rng(seed, 5)
	writes := 0
	gen := func(n int) []*request {
		out := make([]*request, n)
		for i := range out {
			it := &observeItem{}
			req := &request{ref: len(o.items)}
			switch u := mix.IntN(20); {
			case u < 5: // one write per three reads
				it.kind = kindObserve
				it.batch = o.batch((writes/driftEvery)%2, mix.IntN(observeCells))
				writes++
				req.method, req.path, req.body = http.MethodPost, "/v1/observe", mustJSON(it.batch)
			case u < 17:
				it.kind, it.key = kindWhatIf, mix.IntN(len(whatIfKeys))
				req.method, req.path = http.MethodGet, whatIfKeys[it.key].path()
			default:
				it.kind = kindDemands
				req.method, req.path = http.MethodGet, "/v1/demands"
			}
			o.items = append(o.items, it)
			out[i] = req
		}
		return out
	}
	o.open, o.closed = gen(openN), gen(closedN)
	o.version = map[int]uint64{}
	return nil
}

// batch is one /v1/observe body: Service-Demand-Law samples (U = D·X) for
// every station at every cell concurrency, with ±0.5% noise on U, plus one
// system-level throughput at cell sys — scored against the live snapshot,
// it breaches the 3% bound after each demand shift.
func (o *observeMix) batch(phase, sys int) *modelio.ObserveRequest {
	scale := 1.0
	if phase == 1 {
		scale = driftScale
	}
	b := &modelio.ObserveRequest{}
	for k, st := range o.model.Stations {
		for _, n := range o.cells {
			x := o.truthX[phase][n-1]
			d := scale * o.curves[k].at(float64(n))
			b.Samples = append(b.Samples, modelio.ObserveSample{
				Station: st.Name, Concurrency: n, Throughput: x,
				Utilization: d * x * (1 + 0.01*(o.noise.Float64()-0.5)),
			})
		}
	}
	n := o.cells[sys]
	b.System = []modelio.SystemSample{{Concurrency: n, Throughput: o.truthX[phase][n-1]}}
	return b
}

func (o *observeMix) streams() (open, closed []*request) { return o.open, o.closed }

// warm registers the model and bootstraps the first demand snapshot.
func (o *observeMix) warm(ctx context.Context, hc *http.Client, target string) error {
	for i, b := range o.warmB {
		var resp modelio.ObserveResponse
		if err := call(ctx, hc, target, http.MethodPost, "/v1/observe", b, &resp); err != nil {
			return fmt.Errorf("bootstrap batch %d: %w", i, err)
		}
		if i == len(o.warmB)-1 && (resp.SnapshotVersion == 0 || resp.FitError != "") {
			return fmt.Errorf("bootstrap fit failed: %q", resp.FitError)
		}
	}
	return nil
}

// monotone enforces that the snapshot version one connection sees never
// goes backwards.
func (o *observeMix) monotone(conn int, v uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if v < o.version[conn] {
		return fmt.Errorf("snapshot version went back from %d to %d", o.version[conn], v)
	}
	o.version[conn] = v
	return nil
}

func (o *observeMix) check(req *request, rec *record, body []byte) error {
	it := o.items[req.ref]
	switch it.kind {
	case kindObserve:
		var resp modelio.ObserveResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decoding observe response: %w", err)
		}
		if len(resp.Errors) > 0 || resp.FitError != "" || resp.Accepted+resp.Rejected != len(it.batch.Samples) {
			return fmt.Errorf("observe batch: %d accepted, %d rejected, errors %v, fit error %q",
				resp.Accepted, resp.Rejected, resp.Errors, resp.FitError)
		}
		for _, c := range resp.Checks {
			if c.Error != "" {
				return fmt.Errorf("observe system check: %s", c.Error)
			}
		}
		return o.monotone(rec.conn, resp.SnapshotVersion)
	case kindWhatIf:
		var resp modelio.WhatIfResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decoding whatif response: %w", err)
		}
		k := whatIfKeys[it.key]
		if resp.Station != k.station || resp.MaxN != whatIfMaxN || resp.N < 1 || resp.N > whatIfMaxN {
			return fmt.Errorf("whatif answered %s at N=%d of %d", resp.Station, resp.N, resp.MaxN)
		}
		if got := resp.X * resp.Cycle; math.Abs(got-float64(resp.N)) > 1e-9*float64(resp.N) {
			return fmt.Errorf("whatif breaks Little's law: X·(R+Z) = %v at N=%d", got, resp.N)
		}
		if resp.Saturated && resp.Utilization < k.util {
			return fmt.Errorf("whatif saturated below its target: %v < %v", resp.Utilization, k.util)
		}
		return o.monotone(rec.conn, resp.SnapshotVersion)
	default:
		var resp modelio.DemandsResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decoding demands response: %w", err)
		}
		if resp.SnapshotVersion == 0 || resp.Model == nil || resp.Samples == nil {
			return fmt.Errorf("demands response has no snapshot")
		}
		return o.monotone(rec.conn, resp.SnapshotVersion)
	}
}

// verify checks the documented identity: posting the /v1/demands model and
// samples to /v1/solve reproduces every what-if answer float for float.
func (o *observeMix) verify(ctx context.Context, hc *http.Client, target string) error {
	var dem modelio.DemandsResponse
	if err := call(ctx, hc, target, http.MethodGet, "/v1/demands", nil, &dem); err != nil {
		return err
	}
	for _, k := range whatIfKeys {
		var wi modelio.WhatIfResponse
		if err := call(ctx, hc, target, http.MethodGet, k.path(), nil, &wi); err != nil {
			return err
		}
		if wi.SnapshotVersion != dem.SnapshotVersion {
			return fmt.Errorf("whatif on snapshot %d after demands on %d with no writes in between",
				wi.SnapshotVersion, dem.SnapshotVersion)
		}
		req := whatIfSolve(dem.Model, dem.Samples, dem.Interp, k)
		var sol modelio.SolveResponse
		if err := call(ctx, hc, target, http.MethodPost, "/v1/solve", mustJSON(req), &sol); err != nil {
			return err
		}
		t := sol.Trajectory
		if t == nil || len(t.N) != whatIfMaxN {
			return fmt.Errorf("identity solve returned no dense trajectory")
		}
		i := wi.N - 1
		if math.Float64bits(t.X[i]) != math.Float64bits(wi.X) || math.Float64bits(t.Cycle[i]) != math.Float64bits(wi.Cycle) {
			return fmt.Errorf("whatif %s at N=%d: X=%v cycle=%v, /v1/solve gives X=%v cycle=%v",
				k.path(), wi.N, wi.X, wi.Cycle, t.X[i], t.Cycle[i])
		}
		if wi.N == whatIfMaxN {
			s := dem.Model.StationIndex(k.station)
			if math.Float64bits(t.FinalUtil[s]) != math.Float64bits(wi.Utilization) {
				return fmt.Errorf("whatif %s utilization %v, /v1/solve gives %v", k.path(), wi.Utilization, t.FinalUtil[s])
			}
		}
	}
	return nil
}

// whatIfSolve is the /v1/solve request equivalent to one what-if query on
// the given snapshot.
func whatIfSolve(model *queueing.Model, samples *modelio.SamplesFile, interp string, k whatIfKey) *modelio.SolveRequest {
	m := *model
	m.Stations = append([]queueing.Station(nil), model.Stations...)
	if name, count, ok := strings.Cut(k.override, "="); ok {
		c, _ := strconv.Atoi(count) // whatIfKeys spell valid counts
		m.Stations[m.StationIndex(name)].Servers = c
	}
	return &modelio.SolveRequest{Algorithm: modelio.AlgoMVASD, Model: &m, Samples: samples, Interp: interp, MaxN: whatIfMaxN}
}

func (o *observeMix) replay(t *tracer, n int) (*replayState, corePerPop, error) {
	st := &replayState{srv: inProcessServer()}
	pops := corePerPop{}
	est, err := estimate.New(o.model, estimate.Config{})
	if err != nil {
		return nil, nil, err
	}
	ctl := estimate.NewController(est, nil)
	ingest := func(b *modelio.ObserveRequest) error {
		for _, s := range b.Samples {
			m := t.mark()
			if _, err := est.Observe(estimate.Sample{Station: est.StationIndex(s.Station), Concurrency: s.Concurrency,
				Utilization: s.Utilization, Throughput: s.Throughput}); err != nil {
				return err
			}
			t.end("estimate.observe", m)
		}
		for _, sys := range b.System {
			m := t.mark()
			start := time.Now()
			// Before the first fit there is no snapshot to score against;
			// the server reports that per check, as this ignores it.
			res, err := ctl.ObserveSystem(sys.Concurrency, sys.Throughput, sys.CycleTime)
			if err != nil && est.Snapshot() != nil {
				return err
			}
			// A breach re-fits inside the check; those checks are the
			// refits the stream triggers.
			if res.Reestimated {
				st.refitMS = append(st.refitMS, float64(time.Since(start))/1e6)
				t.end("estimate.refit", m)
			} else {
				t.end("estimate.check", m)
			}
		}
		return nil
	}
	t.req = -1
	for _, raw := range o.warmB {
		var b modelio.ObserveRequest
		if err := json.Unmarshal(raw, &b); err != nil {
			return nil, nil, err
		}
		if err := ingest(&b); err != nil {
			return nil, nil, err
		}
	}
	if _, _, err := ctl.Refit(); err != nil {
		return nil, nil, err
	}
	for i := 0; i < n && i < len(o.open); i++ {
		req := o.open[i]
		it := o.items[req.ref]
		switch it.kind {
		case kindObserve:
			err = st.timed(t, i, func() error {
				var b modelio.ObserveRequest
				if err := json.Unmarshal(req.body, &b); err != nil {
					return err
				}
				return ingest(&b)
			})
		case kindWhatIf:
			snap := est.Snapshot()
			samples, ferr := modelio.FromDemandSamples(snap.Model, snap.DemandSamples())
			if ferr != nil {
				return nil, nil, ferr
			}
			sreq := whatIfSolve(snap.Model, samples, string(snap.Interp), whatIfKeys[it.key])
			body := mustJSON(sreq)
			if err := sreq.Normalize(); err != nil {
				return nil, nil, err
			}
			_, d, rerr := refSolve(sreq)
			if rerr != nil {
				return nil, nil, rerr
			}
			pops.add(modelio.AlgoMVASD, d, whatIfMaxN)
			err = st.timed(t, i, func() error { return st.solveLayers(t, body, d) })
		default:
			err = st.timed(t, i, func() error {
				snap := est.Snapshot()
				samples, err := modelio.FromDemandSamples(snap.Model, snap.DemandSamples())
				if err != nil {
					return err
				}
				_, err = json.Marshal(&modelio.DemandsResponse{SnapshotVersion: snap.Version, Model: snap.Model, Samples: samples})
				return err
			})
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return st, pops, nil
}
