// Package prom writes the Prometheus text exposition format: every /metrics
// section renders through a Writer, so HELP/TYPE lines, integer versus float
// values, histogram series, exemplars and label-value escaping live here.
// There is no registry; callers emit families in scrape order straight from
// the state that holds the values. Errors are sticky: after the first failed
// write every call is a no-op and Err reports that failure.
package prom

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"repro/internal/report"
)

// Writer renders families and samples onto an io.Writer.
type Writer struct {
	w   io.Writer
	buf []byte
	err error
}

// NewWriter returns a Writer rendering onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, or nil.
func (p *Writer) Err() error { return p.err }

// Family writes a family's HELP and TYPE lines (typ: counter, gauge or
// histogram; help: one line of text).
func (p *Writer) Family(name, typ, help string) {
	p.flush(fmt.Appendf(p.buf[:0], "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ))
}

// Counter writes a counter family with its one unlabelled sample.
func (p *Writer) Counter(name, help string, v uint64) {
	p.Family(name, "counter", help)
	p.Uint(name, v)
}

// Gauge writes a gauge family with its one unlabelled integer sample.
func (p *Writer) Gauge(name, help string, v int64) {
	p.Family(name, "gauge", help)
	p.Int(name, v)
}

// GaugeFloat writes a gauge family with its one unlabelled float sample.
func (p *Writer) GaugeFloat(name, help string, v float64) {
	p.Family(name, "gauge", help)
	p.Float(name, v)
}

// Int writes one integer sample; labels alternate name, value.
func (p *Writer) Int(name string, v int64, labels ...string) {
	p.flush(append(strconv.AppendInt(p.series(name, labels), v, 10), '\n'))
}

// Uint writes one unsigned integer sample; labels alternate name, value.
func (p *Writer) Uint(name string, v uint64, labels ...string) {
	p.flush(append(strconv.AppendUint(p.series(name, labels), v, 10), '\n'))
}

// Float writes one sample in Go's %g form; labels alternate name, value.
func (p *Writer) Float(name string, v float64, labels ...string) {
	p.flush(append(strconv.AppendFloat(p.series(name, labels), v, 'g', -1, 64), '\n'))
}

// Histogram writes h as cumulative name_bucket series (le last among the
// labels), then name_sum and name_count. With exemplars, each bucket's most
// recent traced observation follows its count in the OpenMetrics form
// `name_bucket{le="0.5"} 7 # {trace_id="…"} 0.41 1700000000.123`.
func (p *Writer) Histogram(name string, h *report.FixedHistogram, exemplars bool, labels ...string) {
	bounds, counts := h.Cumulative()
	le := append(labels[:len(labels):len(labels)], "le", "")
	for i, bound := range bounds {
		le[len(le)-1] = "+Inf"
		if !math.IsInf(bound, 1) {
			le[len(le)-1] = strconv.FormatFloat(bound, 'g', -1, 64)
		}
		b := strconv.AppendUint(p.series(name+"_bucket", le), counts[i], 10)
		if ex := h.Exemplars(); exemplars && i < len(ex) && ex[i].TraceID != "" {
			b = appendQuoted(append(b, " # {trace_id="...), ex[i].TraceID)
			b = fmt.Appendf(b, "} %g %.3f", ex[i].Value, ex[i].UnixSeconds)
		}
		p.flush(append(b, '\n'))
	}
	p.Float(name+"_sum", h.Sum(), labels...)
	p.Uint(name+"_count", h.Count(), labels...)
}

// Blank writes an empty line, the separator some sections end with.
func (p *Writer) Blank() { p.flush(append(p.buf[:0], '\n')) }

// series renders `name{l1="v1",...} ` into the scratch buffer.
func (p *Writer) series(name string, labels []string) []byte {
	b := append(p.buf[:0], name...)
	sep := byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		b = append(append(b, sep), labels[i]...)
		b = appendQuoted(append(b, '='), labels[i+1])
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	return append(b, ' ')
}

func (p *Writer) flush(b []byte) {
	p.buf = b
	if p.err == nil {
		_, p.err = p.w.Write(b)
	}
}

// appendQuoted appends v as a quoted label value. The text format has
// exactly three escapes, \\, \" and \n; every other byte passes through raw.
func appendQuoted(b []byte, v string) []byte {
	b = append(b, '"')
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\', '"':
			b = append(b, '\\', v[i])
		case '\n':
			b = append(b, `\n`...)
		default:
			b = append(b, v[i])
		}
	}
	return append(b, '"')
}
