package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunPhaseOpenAndClosed drives a stub server through both phase kinds
// (run it with -race: the connections, the checker and the stats share
// the records).
func TestRunPhaseOpenAndClosed(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Header().Set("Server-Timing", "cache;dur=0.010")
		if r.URL.Path == "/fail" {
			http.Error(w, "nope", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, r.URL.Path)
	}))
	defer srv.Close()
	target := strings.TrimPrefix(srv.URL, "http://")
	cpu := func() (float64, error) { return 0, nil }
	var checked atomic.Int64
	check := func(req *request, _ *record, body []byte) error {
		checked.Add(1)
		if string(body) != req.path {
			return fmt.Errorf("body %q for %q", body, req.path)
		}
		return nil
	}

	var open []*request
	for i := 0; i < 40; i++ {
		path := fmt.Sprintf("/r%d", i)
		if i == 7 {
			path = "/fail"
		}
		open = append(open, &request{method: http.MethodGet, path: path, due: time.Duration(i) * time.Millisecond})
	}
	ph, err := runPhase(context.Background(), target, open, true, 0, check, cpu)
	if err != nil {
		t.Fatal(err)
	}
	st := ph.stats()
	if st.sent != 40 || st.ok != 39 || st.failed != 1 || checked.Load() != 39 {
		t.Fatalf("open phase sent=%d ok=%d failed=%d checked=%d, want 40/39/1/39", st.sent, st.ok, st.failed, checked.Load())
	}
	for i, rec := range ph.recs {
		if rec.sent < open[i].due || rec.done < rec.sent {
			t.Fatalf("request %d sent at %v, due %v, done %v", i, rec.sent, open[i].due, rec.done)
		}
		if i != 7 && rec.timing != "cache;dur=0.010" {
			t.Fatalf("request %d Server-Timing %q", i, rec.timing)
		}
	}

	closed := make([]*request, 100000)
	for i := range closed {
		closed[i] = &request{method: http.MethodGet, path: "/c"}
	}
	served.Store(0)
	ph, err = runPhase(context.Background(), target, closed, false, 50*time.Millisecond, check, cpu)
	if err != nil {
		t.Fatal(err)
	}
	if ph.n == 0 || int64(ph.n) != served.Load() {
		t.Fatalf("closed phase sent %d, server saw %d", ph.n, served.Load())
	}
	if st := ph.stats(); st.failed != 0 || st.ok == 0 || st.ok > st.sent {
		t.Fatalf("closed phase sent=%d ok=%d failed=%d", st.sent, st.ok, st.failed)
	}
}

func TestSplitSkewPicksAnEvenFleet(t *testing.T) {
	var keys []string
	for i := 0; i < 32; i++ {
		keys = append(keys, fmt.Sprintf("model-%d", i))
	}
	if s := splitSkew([]string{"127.0.0.1:20000"}, keys); s != 0 {
		t.Errorf("one node: skew %d, want 0", s)
	}
	// A skew is twice the busiest node's excess over half the keys, so
	// it is even; the best of fleetCandidates port pairs splits 32 keys
	// within one key of even.
	best := len(keys)
	for c := 0; c < fleetCandidates; c++ {
		addrs := []string{fmt.Sprintf("127.0.0.1:%d", 20000+2*c), fmt.Sprintf("127.0.0.1:%d", 20001+2*c)}
		s := splitSkew(addrs, keys)
		if s%2 != 0 || s < 0 {
			t.Fatalf("%v: skew %d, want an even number >= 0", addrs, s)
		}
		best = min(best, s)
	}
	if best > 2 {
		t.Errorf("best skew over %d port pairs = %d, want <= 2", fleetCandidates, best)
	}
}
