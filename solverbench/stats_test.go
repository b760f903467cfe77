package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 && tailCount(c.n, c.want) < minTail {
			t.Errorf("n=%d: p%g has only %d samples beyond it", c.n, c.want, tailCount(c.n, c.want))
		}
	}
}

func TestPercentileNearestRankAndFailures(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
	// Eleven failures push p99 onto a failed request: it misses every limit.
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if got := percentile(xs, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 11 failures in 1000 = %g, want +Inf", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestDueTimeLatencyAccounting(t *testing.T) {
	msd := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	reqs := []*request{{due: 0}, {due: msd(1)}, {due: msd(2)}, {due: msd(3)}}
	recs := []record{
		// On time: latency is the service time.
		{sent: 0, done: msd(5)},
		// Both connections were busy until 5 ms: the 4 ms wait for a
		// connection counts as latency, not as generator lateness.
		{sent: msd(5), done: msd(6), freeAt: msd(5)},
		// The connection was free at 2 ms but the generator sent at
		// 2.5 ms: half a millisecond of generator lateness.
		{sent: msd(2.5), done: msd(4), freeAt: msd(1)},
		{sent: msd(6), done: msd(7), freeAt: msd(6), err: errTest},
	}
	open := &phase{open: true, reqs: reqs, recs: recs, n: 4}
	st := open.stats()
	wantLat := []float64{5, 5, 2, math.Inf(1)}
	wantLate := []float64{0, 0, 0.5, 0}
	for i := range wantLat {
		if math.Abs(st.latMS[i]-wantLat[i]) > 1e-9 && !(math.IsInf(wantLat[i], 1) && math.IsInf(st.latMS[i], 1)) {
			t.Errorf("open latency[%d] = %g, want %g", i, st.latMS[i], wantLat[i])
		}
		if math.Abs(st.latenessMS[i]-wantLate[i]) > 1e-9 {
			t.Errorf("open lateness[%d] = %g, want %g", i, st.latenessMS[i], wantLate[i])
		}
	}
	if st.sent != 4 || st.ok != 3 || st.failed != 1 {
		t.Errorf("open counts sent=%d ok=%d failed=%d, want 4/3/1", st.sent, st.ok, st.failed)
	}

	// Closed loop: latency from the send; completions after the window do
	// not count towards the rate.
	closed := &phase{reqs: reqs[:3], recs: recs[:3], n: 3, window: msd(5.5)}
	cst := closed.stats()
	if cst.latMS[1] != 1 || cst.ok != 2 {
		t.Errorf("closed latency %g ok %d, want 1 and 2", cst.latMS[1], cst.ok)
	}
}

func TestCalmRoundsPicksTheBestQuarter(t *testing.T) {
	round := func(lat float64, n int) phaseStats {
		st := phaseStats{}
		for i := 0; i < n; i++ {
			st.latMS = append(st.latMS, lat)
			st.cleanLatMS = append(st.cleanLatMS, lat)
		}
		return st
	}
	same := func(got []int, want ...int) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	// Eight rounds of 300 requests: the best quarter is the two fastest,
	// but they hold only 600 latencies, so more join until 1000.
	var rounds []phaseStats
	for _, lat := range []float64{5, 2, 7, 1, 9, 3, 8, 6} {
		rounds = append(rounds, round(lat, 300))
	}
	if got, stalls := calmRounds(rounds, 1000); !same(got, 3, 1, 5, 0) || stalls {
		t.Errorf("calmRounds(1000) = %v, %v; want [3 1 5 0], false", got, stalls)
	}
	if got, _ := calmRounds(rounds, 500); !same(got, 3, 1) {
		t.Errorf("calmRounds(500) = %v, want [3 1]", got)
	}
	// A failed request does not make its round look slow: the rank uses
	// the latencies of the requests that succeeded.
	rounds[1].latMS[0], rounds[1].cleanLatMS[0] = math.Inf(1), math.Inf(1)
	if got, _ := calmRounds(rounds, 500); !same(got, 3, 1) {
		t.Errorf("round with a failure: calmRounds(500) = %v, want [3 1]", got)
	}
	// A stall in round 3 slows its mean (it ranks behind round 5 now) and
	// leaves its stalled requests out of the clean count.
	for i := 0; i < 100; i++ {
		rounds[3].latMS[i] = 20
	}
	rounds[3].cleanLatMS = rounds[3].cleanLatMS[100:]
	if got, _ := calmRounds(rounds, 500); !same(got, 1, 5) {
		t.Errorf("stalled round: calmRounds(500) = %v, want [1 5]", got)
	}
	// Steal everywhere: no request is clean, so the stalled ones count.
	for i := range rounds {
		rounds[i].cleanLatMS = nil
	}
	if got, stalls := calmRounds(rounds, 500); !same(got, 1, 5) || !stalls {
		t.Errorf("all stalled: calmRounds(500) = %v, %v; want [1 5], true", got, stalls)
	}
}

func TestStolenIntervalsLeaveOutStalledRequests(t *testing.T) {
	msd := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	samples := []stealSample{{0, 100}, {msd(10), 100}, {msd(20), 100}, {msd(30), 103}, {msd(40), 103}, {msd(200), 104}}
	got := stolenIntervals(samples)
	// 3 ticks by 30 ms: up to 4 ticks of stall plus a tick of accounting
	// lag before it, then the drain. The later rise of one tick reaches back
	// past its window only as far as the earlier reading.
	want := []interval{{msd(-20), msd(50)}, {msd(40), msd(220)}}
	if len(got) != len(want) {
		t.Fatalf("intervals %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("interval %d = %v, want %v", i, got[i], want[i])
		}
	}

	reqs := []*request{{due: msd(1)}, {due: msd(55)}, {due: msd(45)}, {due: msd(230)}, {due: msd(240)}}
	recs := []record{
		{sent: msd(1), done: msd(2)},                   // in the first stall
		{sent: msd(55), done: msd(56)},                 // in the second
		{sent: msd(45), done: msd(46)},                 // in both
		{sent: msd(230), done: msd(232)},               // clean
		{sent: msd(240), done: msd(241), err: errTest}, // failed: always kept
	}
	ph := &phase{open: true, reqs: reqs, recs: recs, n: len(reqs), steal: samples}
	st := ph.stats()
	if len(st.latMS) != 5 || len(st.cleanLatMS) != 2 || st.cleanLatMS[0] != 2 || !math.IsInf(st.cleanLatMS[1], 1) {
		t.Errorf("latencies %v, kept %v; want all 5 and [2 +Inf]", st.latMS, st.cleanLatMS)
	}
}

func TestParseServerTiming(t *testing.T) {
	st, err := parseServerTiming("cache;dur=0.412, solve;dur=17.204, cache;dur=0.1, forward;desc=\"hop\";dur=2")
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := st.phase("cache"); !ok || math.Abs(c-0.512) > 1e-12 {
		t.Errorf("cache = %g %v, want 0.512", c, ok)
	}
	if f, _ := st.phase("forward"); f != 2 {
		t.Errorf("forward = %g, want 2", f)
	}
	if _, ok := st.phase("plan"); ok {
		t.Error("absent phase reported present")
	}
	if math.Abs(st.total()-19.716) > 1e-9 {
		t.Errorf("total = %g, want 19.716", st.total())
	}
	if st, err := parseServerTiming(""); err != nil || st.total() != 0 {
		t.Errorf("empty header: %v %v", st, err)
	}
	for _, bad := range []string{"cache;dur=abc", ";dur=1"} {
		if _, err := parseServerTiming(bad); err == nil {
			t.Errorf("parseServerTiming(%q) accepted", bad)
		}
	}
}

func TestParsePrometheus(t *testing.T) {
	text := `# HELP solverd_cache_hits_total Hits.
# TYPE solverd_cache_hits_total counter
solverd_cache_hits_total 12
solverd_requests_total{handler="solve",code="200"} 5
solverd_requests_total{handler="odd}name",code="429"} 2
solverd_cluster_forward_duration_seconds_bucket{outcome="ok",le="0.01"} 3 # {trace_id="abc"} 0.004 1700000000.5
solverd_heap_inuse_bytes 1.5e+06

`
	got, err := parsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"solverd_cache_hits_total":                        12,
		"solverd_requests_total":                          7,
		"solverd_cluster_forward_duration_seconds_bucket": 3,
		"solverd_heap_inuse_bytes":                        1.5e6,
	} {
		if got[name] != want {
			t.Errorf("%s = %g, want %g", name, got[name], want)
		}
	}
	if d := delta(got, addProm(got, got), "solverd_cache_hits_total"); d != 12 {
		t.Errorf("delta = %g, want 12", d)
	}
	if _, err := parsePrometheus(strings.NewReader("x{a=\"1\" 3\n")); err == nil {
		t.Error("unterminated label set accepted")
	}
	if _, err := parsePrometheus(strings.NewReader("x notanumber\n")); err == nil {
		t.Error("bad value accepted")
	}
}

func TestStatCPUTicks(t *testing.T) {
	line := []byte("4242 (solver d) (x)) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 9 0 1 1 1")
	got, err := statCPUTicks(line)
	if err != nil || got != 325 {
		t.Errorf("statCPUTicks = %d, %v; want 325", got, err)
	}
	if _, err := statCPUTicks([]byte("garbage")); err == nil {
		t.Error("malformed stat line accepted")
	}
}

func TestParseCPUStat(t *testing.T) {
	steal, total, err := parseCPUStat([]byte("cpu  100 0 20 300 4 0 6 10 0 0\ncpu0 50 0 10 150 2 0 3 5 0 0\n"))
	if err != nil || steal != 10 || total != 440 {
		t.Errorf("parseCPUStat = %d, %d, %v; want 10, 440", steal, total, err)
	}
	if _, _, err := parseCPUStat([]byte("intr 1 2 3\n")); err == nil {
		t.Error("a stat file without the cpu line was accepted")
	}
}
