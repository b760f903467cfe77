package modelio

// This file is the solve response's reflection-free JSON writer. Its output
// is byte-for-byte what json.NewEncoder(w).Encode(resp) writes for a
// *SolveResponse — HTML-escaped strings, ES6 float spelling, trailing
// newline — and non-finite floats fail with the same error encoding/json
// returns (FuzzAppendSolveResponse pins both). Dense trajectories served
// repeatedly from the solve cache can skip float formatting altogether: a
// TrajectoryText holds their n/x/r/cycle series already formatted, and
// AppendSolveResult copies its prefix.

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"repro/internal/core"
)

// AppendSolveResponse appends resp encoded exactly as json.NewEncoder(w)
// .Encode(resp) would write it, trailing newline included. A NaN or ±Inf
// value fails with encoding/json's *json.UnsupportedValueError for the first
// such value in field order; the partial output must then be discarded.
func AppendSolveResponse(dst []byte, resp *SolveResponse) ([]byte, error) {
	if resp == nil {
		return append(dst, "null\n"...), nil
	}
	dst, err := appendSolveHead(dst, resp.Cached, resp.ElapsedMS)
	if err != nil {
		return dst, err
	}
	t := resp.Trajectory
	if t == nil {
		return append(dst, "null}\n"...), nil
	}
	if dst, err = appendTrajectoryHead(dst, t.Algorithm, t.ModelName, t.ThinkTime, t.StationNames); err != nil {
		return dst, err
	}
	dst = append(dst, `,"n":`...)
	dst = appendInts(dst, t.N)
	if dst, err = appendFloatsField(dst, `,"x":`, t.X); err != nil {
		return dst, err
	}
	if dst, err = appendFloatsField(dst, `,"r":`, t.R); err != nil {
		return dst, err
	}
	if dst, err = appendFloatsField(dst, `,"cycle":`, t.Cycle); err != nil {
		return dst, err
	}
	return appendTrajectoryTail(dst, t.FinalUtil, t.FinalQueueLen, t.MaxX, t.MaxXAt)
}

// AppendSolveResult appends the SolveResponse{Cached, ElapsedMS,
// NewTrajectory(res, 1)} encoding straight from the result view, without
// NewTrajectory's copies. When text covers every row of res (text must have
// been built from res's trajectory, see TrajectoryText), the n/x/r/cycle
// arrays are copied from it instead of formatted. Errors as
// AppendSolveResponse.
func AppendSolveResult(dst []byte, cached bool, elapsedMS float64, res *core.Result, text *TrajectoryText) ([]byte, error) {
	dst, err := appendSolveHead(dst, cached, elapsedMS)
	if err != nil {
		return dst, err
	}
	if dst, err = appendTrajectoryHead(dst, res.Algorithm, res.ModelName, res.ThinkTime, res.StationNames); err != nil {
		return dst, err
	}
	rows := res.Len()
	if rows == 0 {
		// NewTrajectory leaves every series and final row nil.
		return append(dst, `,"n":null,"x":null,"r":null,"cycle":null,"finalUtil":null,"finalQueueLen":null,"maxX":0,"maxXAt":0}}`+"\n"...), nil
	}
	if text.Rows() >= rows {
		for c, name := range [...]string{`,"n":[`, `,"x":[`, `,"r":[`, `,"cycle":[`} {
			dst = append(dst, name...)
			dst = append(dst, text.cols[c].prefix(rows)...)
			dst = append(dst, ']')
		}
	} else {
		dst = append(dst, `,"n":`...)
		dst = appendInts(dst, res.N)
		for _, f := range [...]struct {
			name string
			vals []float64
		}{{`,"x":`, res.X}, {`,"r":`, res.R}, {`,"cycle":`, res.Cycle}} {
			if dst, err = appendFloatsField(dst, f.name, f.vals); err != nil {
				return dst, err
			}
		}
	}
	maxX, maxXAt := res.MaxThroughput()
	return appendTrajectoryTail(dst, res.Util[rows-1], res.QueueLen[rows-1], maxX, maxXAt)
}

func appendSolveHead(dst []byte, cached bool, elapsedMS float64) ([]byte, error) {
	dst = append(dst, `{"cached":`...)
	dst = strconv.AppendBool(dst, cached)
	dst = append(dst, `,"elapsedMs":`...)
	dst, err := appendFloat(dst, elapsedMS)
	if err != nil {
		return dst, err
	}
	return append(dst, `,"trajectory":`...), nil
}

func appendTrajectoryHead(dst []byte, algorithm, modelName string, thinkTime float64, stationNames []string) ([]byte, error) {
	dst = append(dst, `{"algorithm":`...)
	dst = appendString(dst, algorithm)
	dst = append(dst, `,"modelName":`...)
	dst = appendString(dst, modelName)
	dst = append(dst, `,"thinkTime":`...)
	dst, err := appendFloat(dst, thinkTime)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"stationNames":`...)
	if stationNames == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, s := range stationNames {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']'), nil
}

// appendTrajectoryTail closes the trajectory and the response.
func appendTrajectoryTail(dst []byte, finalUtil, finalQueueLen []float64, maxX float64, maxXAt int) ([]byte, error) {
	dst, err := appendFloatsField(dst, `,"finalUtil":`, finalUtil)
	if err != nil {
		return dst, err
	}
	if dst, err = appendFloatsField(dst, `,"finalQueueLen":`, finalQueueLen); err != nil {
		return dst, err
	}
	dst = append(dst, `,"maxX":`...)
	if dst, err = appendFloat(dst, maxX); err != nil {
		return dst, err
	}
	dst = append(dst, `,"maxXAt":`...)
	dst = strconv.AppendInt(dst, int64(maxXAt), 10)
	return append(dst, "}}\n"...), nil
}

func appendInts(dst []byte, vs []int) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

func appendFloatsField(dst []byte, name string, vs []float64) ([]byte, error) {
	dst = append(dst, name...)
	if vs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendFloat(dst, v); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// appendFloat formats f as encoding/json does: like strconv 'f' with the
// shortest round-tripping digits, switching to 'e' (exponent without a
// leading zero) below 1e-6 and from 1e21.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does with HTML escaping on (the
// Encoder default): <, > and & as \u003c etc., control bytes as short or
// \u00XX escapes, invalid UTF-8 as \ufffd, and U+2028/U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// TrajectoryText is the text form of a dense trajectory's n, x, r and cycle
// series: each value already formatted as encoding/json formats it, with
// every row's end offset, so a response covering the first k rows copies k
// rows of bytes per series instead of formatting 3k floats.
//
// A TrajectoryText is an immutable snapshot, safe to read from any number of
// goroutines. Extend returns a new snapshot holding t's bytes plus the rows
// appended after them, in exactly sized storage of its own, so snapshots
// never share memory a later extension writes. The nil *TrajectoryText
// covers no rows.
type TrajectoryText struct {
	rows int
	cols [4]textColumn // n, x, r, cycle
}

// textColumn holds one series' formatted values, comma-separated, and the
// offset in buf where each row's value ends.
type textColumn struct {
	buf []byte
	end []int32
}

// maxTextRows keeps every end offset within int32: no formatted value plus
// its comma exceeds 32 bytes. Rows past it are formatted per request.
const maxTextRows = math.MaxInt32 / 32

// prefix returns the first rows values, comma-separated.
func (c *textColumn) prefix(rows int) []byte { return c.buf[:c.end[rows-1]] }

// Rows reports how many leading trajectory rows t covers.
func (t *TrajectoryText) Rows() int {
	if t == nil {
		return 0
	}
	return t.rows
}

// Extend returns a snapshot covering every stored row of res, formatting
// only the rows beyond t. res must be t's own trajectory (the rows t was
// built from, possibly grown since). Formatting stops before the first row
// holding a NaN or ±Inf — encoding/json refuses those, so such rows are
// never served from text — or at maxTextRows, so the result may cover fewer
// rows than res; it is t itself when nothing was added.
func (t *TrajectoryText) Extend(res *core.Result) *TrajectoryText {
	from := t.Rows()
	series := [...][]float64{res.X, res.R, res.Cycle}
	rows := from
	for ; rows < res.Len() && rows < maxTextRows; rows++ {
		finite := true
		for _, s := range series {
			if v := s[rows]; math.IsInf(v, 0) || math.IsNaN(v) {
				finite = false
			}
		}
		if !finite {
			break
		}
	}
	if rows == from {
		return t
	}
	next := &TrajectoryText{rows: rows}
	var add []byte
	for c := range next.cols {
		var old textColumn
		if t != nil {
			old = t.cols[c]
		}
		end := make([]int32, rows)
		copy(end, old.end)
		add = add[:0]
		for i := from; i < rows; i++ {
			if i > 0 {
				add = append(add, ',')
			}
			if c == 0 {
				add = strconv.AppendInt(add, int64(res.N[i]), 10)
			} else {
				add, _ = appendFloat(add, series[c-1][i]) // finite: cannot fail
			}
			end[i] = int32(len(old.buf) + len(add))
		}
		buf := make([]byte, len(old.buf)+len(add))
		copy(buf[copy(buf, old.buf):], add)
		next.cols[c] = textColumn{buf: buf, end: end}
	}
	return next
}
