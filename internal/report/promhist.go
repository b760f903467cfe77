package report

import (
	"fmt"
	"math"
	"sort"
)

// FixedHistogram is a fixed-bucket histogram in the Prometheus style: values
// are counted into buckets by configured upper bounds, with an implicit +Inf
// bucket, a running sum and a total count. Unlike Histogram (which bins a
// finished sample for ASCII display), FixedHistogram is built for streaming
// observation — the solver service feeds it request latencies and renders it
// on /metrics. It is not safe for concurrent use; callers serialise access.
type FixedHistogram struct {
	bounds []float64 // ascending upper bounds, excluding +Inf
	counts []uint64  // per-bucket counts; counts[len(bounds)] is the +Inf bucket
	sum    float64
	count  uint64

	// exemplars[i] is the most recent traced observation that landed in
	// bucket i (zero TraceID: none). Allocated lazily on the first
	// ObserveWithExemplar so the plain Observe path stays allocation-free.
	exemplars []Exemplar
}

// Exemplar is one traced observation attached to a histogram bucket, in the
// OpenMetrics exemplar shape: the trace id, the observed value and its wall
// time — a p99 spike on a dashboard links straight to a stitched trace.
type Exemplar struct {
	TraceID     string
	Value       float64
	UnixSeconds float64
}

// NewFixedHistogram builds a histogram with the given ascending upper bounds
// (the +Inf bucket is implicit and must not be passed).
func NewFixedHistogram(bounds ...float64) (*FixedHistogram, error) {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			return nil, fmt.Errorf("report: histogram bounds not ascending: %g after %g",
				bounds[i], bounds[i-1])
		}
	}
	if len(bounds) > 0 && math.IsInf(bounds[len(bounds)-1], 1) {
		return nil, fmt.Errorf("report: +Inf bound is implicit")
	}
	return &FixedHistogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}, nil
}

// DefaultLatencyBounds are upper bounds (seconds) suited to solver-request
// latencies: sub-millisecond cache hits through multi-second sweeps.
func DefaultLatencyBounds() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// DefaultIterationBounds are upper bounds suited to inner fixed-point
// iteration counts (MVASD's demand/throughput resolution, capped at 200 by
// default): roughly logarithmic from "converged immediately" to "hit the
// iteration cap".
func DefaultIterationBounds() []float64 {
	return []float64{1, 2, 3, 5, 10, 20, 50, 100, 200}
}

// Observe counts one value.
func (h *FixedHistogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (bucket is "le")
	h.counts[i]++
	h.sum += v
	h.count++
}

// ObserveWithExemplar counts one value and, when traceID is non-empty,
// remembers it as the containing bucket's exemplar (most recent wins).
func (h *FixedHistogram) ObserveWithExemplar(v float64, traceID string, unixSeconds float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
	if traceID == "" {
		return
	}
	if h.exemplars == nil {
		h.exemplars = make([]Exemplar, len(h.counts))
	}
	h.exemplars[i] = Exemplar{TraceID: traceID, Value: v, UnixSeconds: unixSeconds}
}

// Count returns the number of observations.
func (h *FixedHistogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed values.
func (h *FixedHistogram) Sum() float64 { return h.sum }

// Cumulative returns the bucket upper bounds (ending with +Inf) and the
// cumulative counts ≤ each bound, the exact shape of Prometheus `_bucket`
// series.
func (h *FixedHistogram) Cumulative() (bounds []float64, counts []uint64) {
	bounds = append(append([]float64(nil), h.bounds...), math.Inf(1))
	counts = make([]uint64, len(h.counts))
	run := uint64(0)
	for i, c := range h.counts {
		run += c
		counts[i] = run
	}
	return bounds, counts
}

// Quantile estimates the q-quantile (0..1) by linear interpolation inside the
// containing bucket, Prometheus histogram_quantile-style. The lowest bucket
// interpolates from 0; an estimate in the +Inf bucket is clamped to the
// largest finite bound. Returns NaN on an empty histogram.
func (h *FixedHistogram) Quantile(q float64) float64 {
	if h.count == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	rank := q * float64(h.count)
	run := uint64(0)
	for i, c := range h.counts {
		prev := run
		run += c
		if float64(run) < rank {
			continue
		}
		if i == len(h.bounds) { // +Inf bucket
			if len(h.bounds) == 0 {
				return math.NaN()
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		if c == 0 {
			return h.bounds[i]
		}
		return lo + (h.bounds[i]-lo)*(rank-float64(prev))/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// Exemplars returns each bucket's most recent traced observation, indexed
// like Cumulative's buckets (a zero TraceID marks a bucket without one); nil
// before the first ObserveWithExemplar.
func (h *FixedHistogram) Exemplars() []Exemplar { return h.exemplars }
