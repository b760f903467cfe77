package cluster

import (
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/modelio"
	"repro/internal/obs"
	"repro/internal/selfmodel"
	"repro/internal/server"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from the current exposition")

// TestGoldenScrape pins the /metrics schema: after a fixed request script,
// every HELP line, TYPE line and series identity (name plus label set) of a
// standalone server's and of a cluster gateway's scrape must match the
// golden files byte for byte and in order. Values are compared exactly
// except on the volatile families (see normalizeScrape), which keep only
// their formatting class: an integer-formatted series stays integer.
//
// Regenerate after an intended schema change with
//
//	go test ./internal/cluster -run TestGoldenScrape -update-golden
func TestGoldenScrape(t *testing.T) {
	t.Run("standalone", func(t *testing.T) {
		srv := server.New(server.Config{
			Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
			Recorder: obs.New(obs.Config{Node: "golden", SampleRate: 1}),
			Journal:  journal.New(journal.Config{Node: "golden"}),
			Self:     selfmodel.Config{Interval: time.Hour},
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		mustPost(t, ts.URL+"/v1/solve", solveRequest(0.5, 40))
		mustPost(t, ts.URL+"/v1/solve", solveRequest(0.5, 30)) // prefix hit
		mustPost(t, ts.URL+"/v1/solve", solveRequest(0.5, 60)) // extension
		if resp, _ := postJSON(t, ts.URL+"/v1/solve", map[string]any{"maxN": 10}, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("model-less solve: status %d", resp.StatusCode)
		}
		mustPost(t, ts.URL+"/v1/observe", goldenObserve())
		mustPost(t, ts.URL+"/v1/observe", modelio.ObserveRequest{ // scored against the fit
			System: []modelio.SystemSample{{Concurrency: 10, Throughput: 12, CycleTime: 0.34}},
		})
		getBody(t, ts.URL+"/v1/demands")
		getBody(t, ts.URL+"/v1/self")
		getBody(t, ts.URL+"/healthz")

		checkGolden(t, "scrape_standalone.golden", normalizeScrape(string(getBody(t, ts.URL+"/metrics")), nil))
	})

	t.Run("gateway", func(t *testing.T) {
		// No probe may land inside the script: it would count on the
		// entry's healthz series.
		nodes := startCluster(t, 2, func(c *Config) { c.ProbeInterval = time.Hour })
		entry := nodes[0]
		req, _ := remoteOwnedRequest(t, nodes, entry)
		mustPost(t, "http://"+entry.addr+"/v1/solve", req)
		mustPost(t, "http://"+entry.addr+"/v1/solve", req) // forwarded again: the owner's hit
		getBody(t, "http://"+entry.addr+"/healthz")

		body := string(getBody(t, "http://"+entry.addr+"/metrics"))
		checkGolden(t, "scrape_gateway.golden", normalizeScrape(body, map[string]string{
			nodes[1].addr: "PEER1",
		}))
	})
}

func mustPost(t *testing.T, url string, body any) {
	t.Helper()
	if resp, out := postJSON(t, url, body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, out)
	}
}

// goldenObserve registers a two-station model and streams Service Demand
// Law samples with a forced fit, so the estimate families carry one series
// per station.
func goldenObserve() modelio.ObserveRequest {
	m := testModel(0.5)
	req := modelio.ObserveRequest{Model: m, Fit: true}
	demands := []float64{0.02, 0.008}
	for _, n := range []int{1, 5, 10, 15, 20} {
		x := float64(n) / (0.5 + 0.03*float64(n))
		for k, st := range m.Stations {
			for i := 0; i < 8; i++ {
				req.Samples = append(req.Samples, modelio.ObserveSample{
					Station: st.Name, Concurrency: n,
					Utilization: demands[k] * x, Throughput: x,
				})
			}
		}
	}
	return req
}

// volatileFamily matches the families whose values depend on timing or the
// runtime rather than on the request script: latency histograms, runtime
// gauges and retained-bytes accounting.
var volatileFamily = regexp.MustCompile(`^solverd_(goroutines|heap_inuse_bytes|trace_store_bytes|` +
	`request_duration_seconds|cluster_forward_duration_seconds|self_request_seconds)(_bucket|_sum|_count)?$`)

var integerValue = regexp.MustCompile(`^-?[0-9]+$`)

// normalizeScrape renders an exposition in its comparable form: HELP, TYPE
// and series identities verbatim; exemplars dropped (which bucket holds one
// is timing); volatile values replaced by their class, <int> or <float>.
// Label values that are run-specific but exactly known (the toolchain
// version, peer addresses) are replaced by fixed names.
func normalizeScrape(body string, rename map[string]string) string {
	body = strings.ReplaceAll(body, `go_version="`+runtime.Version()+`"`, `go_version="GOVERSION"`)
	for from, to := range rename {
		body = strings.ReplaceAll(body, `"`+from+`"`, `"`+to+`"`)
	}
	var out strings.Builder
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			if line != "" {
				out.WriteString(line + "\n")
			}
			continue
		}
		line, _, _ = strings.Cut(line, " # ")
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			out.WriteString(line + "\n")
			continue
		}
		series, value := line[:sp], line[sp+1:]
		name, _, _ := strings.Cut(series, "{")
		if volatileFamily.MatchString(name) {
			if integerValue.MatchString(value) {
				value = "<int>"
			} else {
				value = "<float>"
			}
		}
		out.WriteString(series + " " + value + "\n")
	}
	return out.String()
}

func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: first difference at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
