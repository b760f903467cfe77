package modelio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
)

// encodeStd is the reference: what encoding/json's Encoder writes for v.
func encodeStd(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// checkSame fails unless got/gotErr match encoding/json's output for want:
// the same bytes, or an error with the same message.
func checkSame(t *testing.T, what string, got []byte, gotErr error, want any) {
	t.Helper()
	ref, refErr := encodeStd(want)
	switch {
	case refErr != nil || gotErr != nil:
		if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
			t.Fatalf("%s: error %v, encoding/json error %v", what, gotErr, refErr)
		}
	case !bytes.Equal(got, ref):
		t.Fatalf("%s:\n got %q\nwant %q", what, got, ref)
	}
}

// floatsFrom reads data as little-endian float64 bit patterns (a short tail
// is zero-padded), so the fuzzer reaches every float: NaNs, infinities,
// subnormals, -0.
func floatsFrom(data []byte) []float64 {
	out := make([]float64, 0, (len(data)+7)/8)
	for len(data) > 0 {
		var b [8]byte
		n := copy(b[:], data)
		data = data[n:]
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
	}
	return out
}

// fuzzResponse builds a SolveResponse, and the dense core.Result it would be
// the untrimmed trajectory of, from fuzz inputs. shape bits pick nil vs
// empty slices and a nil trajectory; the station count comes from its top
// bits.
func fuzzResponse(cached bool, elapsed, think float64, algorithm, modelName, station string,
	data []byte, shape uint8) (*SolveResponse, *core.Result) {
	vals := floatsFrom(data)
	k := 1 + int(shape>>5)%3 // stations
	rows := len(vals) / 3
	res := &core.Result{
		Algorithm: algorithm, ModelName: modelName, ThinkTime: think,
		StationNames: make([]string, k),
	}
	for s := range res.StationNames {
		res.StationNames[s] = station
		station += "\x00<&>"
	}
	at := func(i int) float64 { return vals[i%len(vals)] }
	for i := 0; i < rows; i++ {
		res.N = append(res.N, i+1)
		res.X = append(res.X, vals[3*i])
		res.R = append(res.R, vals[3*i+1])
		res.Cycle = append(res.Cycle, vals[3*i+2])
		util, q := make([]float64, k), make([]float64, k)
		for s := 0; s < k; s++ {
			util[s], q[s] = at(3*i+s+1), at(3*i+s+2)
		}
		res.Util = append(res.Util, util)
		res.QueueLen = append(res.QueueLen, q)
		res.Residence = append(res.Residence, q)
		res.Demands = append(res.Demands, util)
	}
	resp := &SolveResponse{Cached: cached, ElapsedMS: elapsed}
	if shape&1 != 0 {
		return resp, res // nil trajectory
	}
	traj := NewTrajectory(res, 1)
	if shape&2 != 0 && rows > 0 {
		// Arbitrary ints and a peak that need not be in the series.
		for i := range traj.N {
			traj.N[i] = int(int32(math.Float64bits(traj.X[i])))
		}
		traj.MaxX, traj.MaxXAt = vals[len(vals)-1], -rows
	}
	if shape&4 != 0 {
		traj.StationNames = nil
		traj.FinalUtil = []float64{}
	}
	if shape&8 != 0 {
		traj.N, traj.X = []int{}, []float64{}
		traj.FinalQueueLen = nil
	}
	if shape&16 != 0 {
		traj.StationNames = []string{}
		traj.R, traj.Cycle = nil, nil
	}
	resp.Trajectory = traj
	return resp, res
}

// rowsOf returns the first rows rows of a hand-built dense result, the way
// a published prefix snapshot of a growing trajectory looks.
func rowsOf(res *core.Result, rows int) *core.Result {
	v := *res
	v.N, v.X, v.R, v.Cycle = res.N[:rows], res.X[:rows], res.R[:rows], res.Cycle[:rows]
	v.Util, v.QueueLen = res.Util[:rows], res.QueueLen[:rows]
	v.Residence, v.Demands = res.Residence[:rows], res.Demands[:rows]
	return &v
}

// FuzzAppendSolveResponse: the reflection-free writer must produce exactly
// encoding/json's bytes for any response — every float bit pattern, every
// string, nil and empty slices — and fail exactly where encoding/json fails
// (NaN, ±Inf) with the same message. The same holds for a dense result
// encoded from its view, with or without text columns built in two
// append-only steps.
func FuzzAppendSolveResponse(f *testing.F) {
	bits := func(vs ...float64) []byte {
		var out []byte
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(true, 0.125, 0.5, "multiserver", "vins", "web/cpu",
		bits(1, 0.5, 1.5, 1.9, 0.52, 1.02, 2.5, 0.8, 1.3), uint8(0x40))
	f.Add(false, 1e-7, 1e21, "exact", "<a&b>", "\u2028\u2029",
		bits(1e-7, 1e21, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e20, 123456789, 1e-6, 9.999999e20), uint8(0))
	f.Add(false, math.Copysign(0, -1), 0.0, "\x00\x1f\b\f\n\r\t", "\xff\xfe\xc3", "é\x7f\"\\",
		bits(0.1, 0.2, 0.3), uint8(0x22))
	f.Add(true, 2.0, 1.0, "x", "y", "z", bits(1, math.NaN(), 2), uint8(0))
	f.Add(true, 2.0, 1.0, "x", "y", "z", bits(1, 2, 3, math.Inf(1), 1, 1), uint8(0x20))
	f.Add(true, math.Inf(-1), 1.0, "x", "y", "z", bits(1, 2, 3), uint8(0))
	f.Add(false, 3.0, 1.0, "x", "y", "z", []byte{}, uint8(0))
	f.Add(false, 3.0, 1.0, "x", "y", "z", bits(4, 5, 6), uint8(0x1c))
	f.Add(false, 3.0, 1.0, "x", "y", "z", bits(4, 5, 6), uint8(1))
	f.Fuzz(func(t *testing.T, cached bool, elapsed, think float64, algorithm, modelName, station string,
		data []byte, shape uint8) {
		resp, res := fuzzResponse(cached, elapsed, think, algorithm, modelName, station, data, shape)
		got, err := AppendSolveResponse(nil, resp)
		checkSame(t, "AppendSolveResponse", got, err, resp)

		view := &SolveResponse{Cached: cached, ElapsedMS: elapsed, Trajectory: NewTrajectory(res, 1)}
		got, err = AppendSolveResult(nil, cached, elapsed, res, nil)
		checkSame(t, "AppendSolveResult", got, err, view)

		half := (*TrajectoryText)(nil).Extend(rowsOf(res, res.Len()/2))
		text := half.Extend(res)
		if text.Rows() > res.Len() || half.Rows() > text.Rows() {
			t.Fatalf("text rows %d then %d for a %d-row result", half.Rows(), text.Rows(), res.Len())
		}
		got, err = AppendSolveResult([]byte("prefix"), cached, elapsed, res, text)
		if !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("AppendSolveResult clobbered dst: %q", got)
		}
		checkSame(t, "AppendSolveResult with text", got[len("prefix"):], err, view)
		// Prefixes the text covers serve byte-identically, including those
		// of the half-built snapshot (never written past by the extension).
		for _, rows := range []int{1, half.Rows(), half.Rows() + 1, text.Rows()} {
			for _, tx := range []*TrajectoryText{half, text} {
				if rows < 1 || tx.Rows() < rows {
					continue
				}
				sub := rowsOf(res, rows)
				got, err = AppendSolveResult(nil, cached, elapsed, sub, tx)
				checkSame(t, "prefix from text", got, err,
					&SolveResponse{Cached: cached, ElapsedMS: elapsed, Trajectory: NewTrajectory(sub, 1)})
			}
		}
	})
}

// TestAppendSolveResponseNilAndEdges pins the shapes a fuzz seed may not
// reach: a nil response and a trajectory with every slice nil.
func TestAppendSolveResponseNilAndEdges(t *testing.T) {
	for _, resp := range []*SolveResponse{
		nil,
		{},
		{Cached: true, ElapsedMS: 1e-300, Trajectory: &Trajectory{}},
		{Trajectory: &Trajectory{StationNames: []string{}, N: []int{}, X: []float64{}, R: []float64{},
			Cycle: []float64{}, FinalUtil: []float64{}, FinalQueueLen: []float64{}}},
	} {
		got, err := AppendSolveResponse(nil, resp)
		checkSame(t, "edge response", got, err, resp)
	}
	// A result view holding no rows (a decimated prefix below its first
	// stored population) encodes like NewTrajectory's empty trajectory.
	empty := &core.Result{Algorithm: "exact", ModelName: "m", ThinkTime: 1, StationNames: []string{"a"}}
	got, err := AppendSolveResult(nil, false, 2, empty, nil)
	checkSame(t, "empty view", got, err,
		&SolveResponse{ElapsedMS: 2, Trajectory: NewTrajectory(empty, 1)})
}

// TestAppendSolveResultFromSolver checks the writer against a real solver's
// trajectory at every prefix, with text columns grown as the solver extends.
func TestAppendSolveResultFromSolver(t *testing.T) {
	sol, err := core.NewMultiServerSolver(apiTestModel(), core.MultiServerOptions{TraceStation: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sol.Release()
	var text *TrajectoryText
	for _, n := range []int{7, 40, 41, 120} {
		if err := sol.Run(n); err != nil {
			t.Fatal(err)
		}
		snap, err := sol.Result().Prefix(n)
		if err != nil {
			t.Fatal(err)
		}
		text = text.Extend(snap)
		if text.Rows() != n {
			t.Fatalf("text covers %d rows, want %d", text.Rows(), n)
		}
		for rows := 1; rows <= n; rows++ {
			view, err := snap.Prefix(rows)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AppendSolveResult(nil, true, 0.25, view, text)
			checkSame(t, "solver prefix", got, err,
				&SolveResponse{Cached: true, ElapsedMS: 0.25, Trajectory: NewTrajectory(view, 0)})
		}
	}
}
