package report

import (
	"math"
	"testing"
)

func TestFixedHistogramBuckets(t *testing.T) {
	h, err := NewFixedHistogram(0.01, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-2.565) > 1e-12 {
		t.Errorf("sum = %g", h.Sum())
	}
	bounds, counts := h.Cumulative()
	if len(bounds) != 4 || !math.IsInf(bounds[3], 1) {
		t.Fatalf("bounds = %v", bounds)
	}
	// le=0.01 catches 0.005 and the boundary value 0.01.
	want := []uint64{2, 3, 4, 5}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("cumulative = %v, want %v", counts, want)
		}
	}
}

func TestFixedHistogramRejectsBadBounds(t *testing.T) {
	if _, err := NewFixedHistogram(1, 1); err == nil {
		t.Error("duplicate bounds accepted")
	}
	if _, err := NewFixedHistogram(2, 1); err == nil {
		t.Error("descending bounds accepted")
	}
	if _, err := NewFixedHistogram(1, math.Inf(1)); err == nil {
		t.Error("explicit +Inf accepted")
	}
}

func TestFixedHistogramQuantile(t *testing.T) {
	h, _ := NewFixedHistogram(1, 2, 3, 4)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%4) + 0.5) // uniform over the four finite buckets
	}
	if q := h.Quantile(0.5); q < 1.5 || q > 2.5 {
		t.Errorf("p50 = %g", q)
	}
	if q := h.Quantile(1); q != 4 {
		t.Errorf("p100 = %g", q)
	}
	empty, _ := NewFixedHistogram(1)
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty histogram produced a quantile")
	}
}
