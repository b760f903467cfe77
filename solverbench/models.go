package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/chebyshev"
	"repro/internal/modelio"
	"repro/internal/queueing"
)

// rng returns the deterministic random stream `stream` of a seed. Every
// generated input comes from one of these, so a seed fixes the inputs.
func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// uniform draws from [lo, hi).
func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// logUniform draws from [lo, hi) with a uniform logarithm.
func logUniform(r *rand.Rand, lo, hi float64) float64 {
	return math.Exp(uniform(r, math.Log(lo), math.Log(hi)))
}

// threeTierModel is a web/app/db system in the shape of the paper's
// testbeds: a multi-core CPU and a single disk per tier.
func threeTierModel(r *rand.Rand, name string) *queueing.Model {
	m := &queueing.Model{Name: name, ThinkTime: uniform(r, 0.5, 2)}
	for _, tier := range []string{"web", "app", "db"} {
		m.Stations = append(m.Stations,
			queueing.Station{Name: tier + "/cpu", Kind: queueing.CPU, Servers: 2 + r.IntN(7),
				Visits: 1, ServiceTime: uniform(r, 0.002, 0.02)},
			queueing.Station{Name: tier + "/disk", Kind: queueing.Disk, Servers: 1,
				Visits: float64(1 + r.IntN(3)), ServiceTime: uniform(r, 0.0005, 0.005)})
	}
	return m
}

// coldModel is a fresh 2–4 station network with 1–16 servers per station.
func coldModel(r *rand.Rand, name string) *queueing.Model {
	m := &queueing.Model{Name: name, ThinkTime: uniform(r, 0.2, 3)}
	k := 2 + r.IntN(3)
	for i := 0; i < k; i++ {
		kind := queueing.CPU
		if i%2 == 1 {
			kind = queueing.Disk
		}
		m.Stations = append(m.Stations, queueing.Station{
			Name: fmt.Sprintf("s%d", i), Kind: kind, Servers: 1 + r.IntN(16),
			Visits: float64(1 + r.IntN(3)), ServiceTime: logUniform(r, 0.0005, 0.02)})
	}
	return m
}

// deepModel is a two-station network of fixed shape (2 and 4 servers) with
// drawn service times, for the deep solves.
func deepModel(r *rand.Rand, name string) *queueing.Model {
	return &queueing.Model{Name: name, ThinkTime: uniform(r, 0.2, 3), Stations: []queueing.Station{
		{Name: "s0", Kind: queueing.CPU, Servers: 2, Visits: 1, ServiceTime: logUniform(r, 0.0005, 0.02)},
		{Name: "s1", Kind: queueing.Disk, Servers: 4, Visits: 2, ServiceTime: logUniform(r, 0.0005, 0.02)},
	}}
}

// decayingDemand is the varying service demand of the paper's testbeds:
// demand falls from D0 towards floor·D0 as concurrency grows (caching,
// batching), with decay length tau.
type decayingDemand struct{ d0, floor, tau float64 }

func (d decayingDemand) at(n float64) float64 {
	return d.d0 * (d.floor + (1-d.floor)*math.Exp(-n/d.tau))
}

// chebyshevSamples samples each station's demand curve at count
// Chebyshev concurrencies on [1, hi], the paper's Section-8 sampling.
func chebyshevSamples(m *queueing.Model, curves []decayingDemand, hi, count int) (*modelio.SamplesFile, error) {
	ns, err := chebyshev.IntegerNodesOn(1, float64(hi), count)
	if err != nil {
		return nil, err
	}
	sf := &modelio.SamplesFile{}
	for k, st := range m.Stations {
		ss := modelio.StationSamples{Name: st.Name}
		for _, n := range ns {
			ss.At = append(ss.At, float64(n))
			ss.Demands = append(ss.Demands, curves[k].at(float64(n)))
		}
		sf.Stations = append(sf.Stations, ss)
	}
	return sf, nil
}
