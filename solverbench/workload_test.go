package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"testing"
)

var errTest = errors.New("test failure")

// generate prepares a workload's streams for one seed, with due times.
func generate(t *testing.T, s spec, seed uint64) []*request {
	t.Helper()
	wl := s.make()
	if err := wl.prepare(seed, 300, 200); err != nil {
		t.Fatalf("%s: prepare: %v", s.name, err)
	}
	open, closed := wl.streams()
	if len(open) != 300 || len(closed) != 200 {
		t.Fatalf("%s: streams of %d and %d requests, want 300 and 200", s.name, len(open), len(closed))
	}
	poissonDue(seed, open, s.rate)
	return append(open, closed...)
}

func sameStream(a, b []*request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].method != b[i].method || a[i].path != b[i].path || a[i].due != b[i].due ||
			a[i].twin != b[i].twin || !bytes.Equal(a[i].body, b[i].body) {
			return false
		}
	}
	return true
}

func TestStreamsAreSeedDeterministic(t *testing.T) {
	for _, s := range workloads {
		a, b := generate(t, s, 7), generate(t, s, 7)
		if !sameStream(a, b) {
			t.Errorf("%s: two streams from seed 7 differ", s.name)
		}
		if sameStream(a, generate(t, s, 8)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", s.name)
		}
		for i := 1; i < 300; i++ {
			if a[i].due < a[i-1].due || (a[i].twin && a[i].due != a[i-1].due) {
				t.Fatalf("%s: due times out of order at %d", s.name, i)
			}
		}
	}
}

func TestColdSolvesMix(t *testing.T) {
	c := &coldSolves{}
	if err := c.prepare(3, 4000, 0); err != nil {
		t.Fatal(err)
	}
	var sweeps, deep, twins, sampled int
	for _, r := range c.open {
		it := c.items[r.ref]
		switch {
		case it.sweep != nil:
			sweeps++
		case it.solve.Decimate > 1:
			deep++
		}
		if r.twin {
			twins++
		}
		if it.sampled {
			sampled++
		}
	}
	n := float64(len(c.open))
	for _, f := range []struct {
		name     string
		got      int
		lo, high float64
	}{
		{"sweeps", sweeps, 0.08, 0.14}, {"deep solves", deep, 0.04, 0.08},
		{"twins", twins, 0.12, 0.22}, {"sampled", sampled, 0.04, 0.08},
	} {
		if share := float64(f.got) / n; share < f.lo || share > f.high {
			t.Errorf("%s are %.3f of requests, want %.2f–%.2f", f.name, share, f.lo, f.high)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the code in step:
// the same workloads in the same order with the same reasons, and the same
// metric names.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct{ Name string }      `json:"end_to_end"`
		PerLayer  []struct{ Name string }      `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, c := range []struct {
		kind       string
		json, code []string
	}{{"end_to_end", names(cfg.EndToEnd), endToEndMetrics}, {"per_layer", names(cfg.PerLayer), perLayerMetrics}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code reports %d", c.kind, len(c.json), len(c.code))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %q, code %q", c.kind, i, c.json[i], c.code[i])
			}
		}
	}
}
