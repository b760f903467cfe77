package prom

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/report"
)

func TestHistogramSeries(t *testing.T) {
	h, _ := report.NewFixedHistogram(0.1, 1)
	h.Observe(0.05)
	h.ObserveWithExemplar(5, "trace-1", 1700000000.1234)
	var b strings.Builder
	p := NewWriter(&b)
	p.Histogram("x_seconds", h, true, "handler", "solve")
	p.Histogram("y_seconds", h, false)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want := `x_seconds_bucket{handler="solve",le="0.1"} 1
x_seconds_bucket{handler="solve",le="1"} 1
x_seconds_bucket{handler="solve",le="+Inf"} 2 # {trace_id="trace-1"} 5 1700000000.123
x_seconds_sum{handler="solve"} 5.05
x_seconds_count{handler="solve"} 2
y_seconds_bucket{le="0.1"} 1
y_seconds_bucket{le="1"} 1
y_seconds_bucket{le="+Inf"} 2
y_seconds_sum 5.05
y_seconds_count 2
`
	if got := b.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestFamilyAndSamples(t *testing.T) {
	var b strings.Builder
	p := NewWriter(&b)
	p.Family("a_total", "counter", "Things.")
	p.Uint("a_total", 18446744073709551615, "k", "v")
	p.Int("b", -3)
	p.Float("c", 0.25)
	p.Float("c", 1e21)
	p.Blank()
	want := "# HELP a_total Things.\n# TYPE a_total counter\n" +
		"a_total{k=\"v\"} 18446744073709551615\nb -3\nc 0.25\nc 1e+21\n\n"
	if got := b.String(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestLabelEscaping: the text format has exactly three escapes; every other
// byte, tabs and non-ASCII included, passes through raw.
func TestLabelEscaping(t *testing.T) {
	var b strings.Builder
	NewWriter(&b).Int("m", 1, "station", "a\\b\"c\nd\teé")
	if got, want := b.String(), "m{station=\"a\\\\b\\\"c\\nd\teé\"} 1\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errors.New("broken pipe")
}

// TestStickyError: the first write error is kept and later calls write
// nothing.
func TestStickyError(t *testing.T) {
	f := &failWriter{}
	p := NewWriter(f)
	p.Family("a", "gauge", "A.")
	p.Int("a", 1)
	p.Blank()
	if p.Err() == nil || f.n != 1 {
		t.Errorf("err = %v after %d writes, want the first error after 1", p.Err(), f.n)
	}
}
