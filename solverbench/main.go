// Command solverbench is the repository's end-to-end benchmark: it starts
// real solverd processes on loopback, drives one seeded traffic mix at them
// from this single process over at most two connections, checks every
// response, and prints end-to-end metrics (or, with -trace 1, per-layer
// metrics from /metrics deltas, response headers and an in-process traced
// replay of the same stream). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	solverbench -solverd PATH -workload hot-hits -seed 1 -seconds 10 -trace 0
//	solverbench -solverd PATH -workload all
package main

import (
	"context"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// A run sets up its nodes at least minSetups times and goes on until
// setupBudget has passed (at most maxSetups); setup_s is the median, and
// the last set-up serves the timed phases.
const (
	minSetups   = 9
	maxSetups   = 41
	setupBudget = 1500 * time.Millisecond
)

// warmUp is an untimed closed-loop phase after set-up: it brings solverd's
// heap, caches and (in cold-solves) its LRU to the steady state the timed
// rounds measure.
const warmUp = time.Second

// openShare is the part of --seconds given to the open-loop phases; the
// rest goes to the closed-loop phases.
const openShare = 0.7

// A run alternates rounds of an open-loop and a closed-loop phase. The
// shared machine's speed swings within a run as its neighbours' load comes
// and goes, and a slow spell only ever costs time. So every rate and
// latency comes from the run's best spells: latencies from the calmest
// quarter of the open-loop rounds (calmRounds), max_rps from the fastest
// closed-loop phase. A slow spell spoils a few
// rounds, not the run; a slower solverd slows them all.
//
// p50_ms, p99_ms and max_rps are printed but left out of the result line.
// On the shared machine the hypervisor steals from under 1% to over 30% of
// the CPU time, in spells that last minutes; in such a spell no round of a
// run escapes the steal, and the latencies measure the steal, not solverd.
// With both cores saturated, the closed-loop rate of one run's rounds
// spreads by ±20% even without steal. All three spread between runs wider
// than any bound a regression gate can use. cpu_us_per_req counts no
// stolen time; the same spells move it by about a tenth. It pools every
// open-loop round: a quarter of them carries too few of cold-solves'
// costly requests to give a steady mean.
const rounds = 16

// minOpenSamples keeps at least ten samples beyond p99 in the pooled
// open-loop latencies; minMedianSamples is the least the median pools.
const (
	minOpenSamples   = 1000
	minMedianSamples = 200
)

// endToEndMetrics and perLayerMetrics are the names a run reports with
// -trace 0 and -trace 1; BENCHMARK.json lists the same names.
var (
	endToEndMetrics = []string{"setup_s", "cpu_us_per_req", "rss_mb"}
	perLayerMetrics = []string{
		"modelio.decode_us", "modelio.key_us", "modelio.encode_us", "modelio.resp_bytes",
		"admission.evaluate_us", "admission.coalesced_share",
		"server.hit_us", "server.miss_overhead_us", "server.cache_hit_ratio", "server.solver_runs_per_req",
		"server.step_pops_per_req", "server.pool_wait_ms", "server.outside_ms",
		"core.ns_per_pop.exact", "core.ns_per_pop.multiserver", "core.ns_per_pop.mvasd",
		"estimate.observe_us", "estimate.refit_ms", "estimate.refits", "estimate.invalidations",
		"cluster.forward_share", "cluster.hedge_share", "cluster.fallback_share", "cluster.forward_ms",
		"trace_overhead_pct",
	}
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fl := flag.NewFlagSet("solverbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name, or all")
	seed := fl.Uint64("seed", 1, "seed of every generated input")
	seconds := fl.Int("seconds", 10, "measured seconds per run (open-loop plus closed-loop phase)")
	trace := fl.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	bin := fl.String("solverd", ".bench_build/solverd", "solverd binary to run")
	spans := fl.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "solverbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fp, err := fingerprint(*bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "solverbench:", err)
		return 1
	}
	fmt.Fprintln(out, fp)

	var specs []spec
	if *name == "all" {
		specs = workloads
	} else if s, ok := lookupWorkload(*name); ok {
		specs = []spec{s}
	} else {
		fmt.Fprintf(os.Stderr, "solverbench: unknown workload %q\n", *name)
		return 2
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, s := range specs {
		cfg := runConfig{spec: s, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, spans: *spans}
		res, err := runWorkload(ctx, cfg, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "solverbench: %s: %v\n", s.name, err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(specs) > 1 {
				k = s.name + "." + k
			}
			total.Metrics[k] = v
		}
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "solverbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(b))
	if !total.Correct {
		return 1
	}
	return 0
}

type runConfig struct {
	spec    spec
	seed    uint64
	seconds int
	trace   bool
	bin     string
	spans   string
}

// runWorkload performs one run: set-up (repeated), the open- and
// closed-loop phases, the after-phase checks and, when tracing, the
// in-process replay.
func runWorkload(ctx context.Context, cfg runConfig, out io.Writer) (*result, error) {
	s := cfg.spec
	openSecs := openShare * float64(cfg.seconds)
	closedSecs := float64(cfg.seconds) - openSecs
	// Enough open-loop requests for a p99 over the calm rounds, after the
	// steal exclusion, even in a short run.
	openN := int(math.Max(2.4*minOpenSamples, math.Ceil(s.rate*openSecs)))
	window := time.Duration(closedSecs / float64(rounds) * float64(time.Second))
	closedN := int(s.closedRate*(closedSecs+warmUp.Seconds())) + 100
	wl := s.make()
	if err := wl.prepare(cfg.seed, openN, closedN); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	openReqs, closedReqs := wl.streams()
	poissonDue(cfg.seed, openReqs, s.rate)

	var keys []string
	if r, ok := wl.(routed); ok {
		keys = r.routingKeys()
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	var nodes []*node
	defer func() { stopFleet(nodes) }()
	var setups []float64
	for began := time.Now(); len(setups) < minSetups || (len(setups) < maxSetups && time.Since(began) < setupBudget); {
		stopFleet(nodes)
		hc.CloseIdleConnections()
		start := time.Now()
		var err error
		if nodes, err = startFleet(cfg.bin, s.nodes, keys); err != nil {
			return nil, err
		}
		if err := setUp(ctx, hc, nodes, wl); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	target := nodes[0].addr
	cpu := func() (float64, error) { return cpuSeconds(nodes) }
	warm, err := runPhase(ctx, target, closedReqs, false, warmUp, wl.check, cpu)
	if err != nil {
		return nil, err
	}
	next := warm.n
	before, err := scrapeFleet(hc, nodes)
	if err != nil {
		return nil, err
	}
	var openPhs, closedPhs []*phase
	var stolen, elapsedTicks uint64
	var roundSteal []float64
	for b := 0; b < rounds; b++ {
		part := openReqs[b*len(openReqs)/rounds : (b+1)*len(openReqs)/rounds]
		base := part[0].due
		for _, r := range part {
			r.due -= base
		}
		steal0, total0, err := cpuStat()
		if err != nil {
			return nil, err
		}
		op, err := runPhase(ctx, target, part, true, 0, wl.check, cpu)
		if err != nil {
			return nil, err
		}
		steal1, total1, err := cpuStat()
		if err != nil {
			return nil, err
		}
		stolen += steal1 - steal0
		elapsedTicks += total1 - total0
		roundSteal = append(roundSteal, float64(steal1-steal0)/math.Max(1, float64(total1-total0)))
		cp, err := runPhase(ctx, target, closedReqs[next:], false, window, wl.check, cpu)
		if err != nil {
			return nil, err
		}
		next += cp.n
		openPhs, closedPhs = append(openPhs, op), append(closedPhs, cp)
	}
	after, err := scrapeFleet(hc, nodes)
	if err != nil {
		return nil, err
	}
	verifyErr := wl.verify(ctx, hc, target)
	rss, err := peakRSSMiB(nodes)
	if err != nil {
		return nil, err
	}
	stopFleet(nodes)
	nodes = nil

	var openB, closedB []phaseStats
	var rps []float64
	openElapsed, openCPU := 0.0, 0.0
	for b := range openPhs {
		o, c := openPhs[b].stats(), closedPhs[b].stats()
		openB, closedB = append(openB, o), append(closedB, c)
		rps = append(rps, float64(c.ok)/window.Seconds())
		fmt.Fprintf(out, "round %d: steal %.2f%%, %d of %d open-loop requests untouched by it (mean %.3f ms, %.1f us cpu/req), closed loop %.0f req/s\n",
			b, 100*roundSteal[b], len(o.cleanLatMS), len(o.latMS), mean(o.latencies(true)),
			openPhs[b].cpuS*1e6/math.Max(1, float64(o.ok)), rps[b])
		openElapsed += openPhs[b].elapsed.Seconds()
		openCPU += openPhs[b].cpuS
	}
	ost, cst := mergeStats(openB), mergeStats(append(closedB, warm.stats()))
	cpuPerReq := openCPU * 1e6 / math.Max(1, float64(ost.ok))
	res := &result{Metrics: map[string]metric{}}
	res.Attempted = ost.sent + cst.sent
	res.Failed = ost.failed + cst.failed
	if verifyErr != nil {
		res.Failed++
		fmt.Fprintf(out, "check failed after the timed phases: %v\n", verifyErr)
	}
	for _, st := range []struct {
		name string
		ps   phaseStats
	}{{"open", ost}, {"closed", cst}} {
		if st.ps.firstErr != nil {
			fmt.Fprintf(out, "first failure in %s phase: %v\n", st.name, st.ps.firstErr)
		}
	}
	res.Correct = res.Failed == 0
	// The latency percentiles leave out the open-loop requests in flight
	// during a hypervisor stall: it freezes solverd and the generator alike
	// and every request due meanwhile waits for it, so on a shared machine
	// the stalls, not solverd, would set the tail. The latencies come from
	// the calmest quarter of the rounds, pooled (and from more rounds while
	// they hold too few requests untouched by steal); the failed requests
	// of every round stay in, each missing every latency limit.
	pool := func(min int) (lat []float64) {
		calm, stalls := calmRounds(openB, min)
		for _, b := range calm {
			lat = append(lat, openB[b].latencies(stalls)...)
		}
		for _, v := range ost.latMS {
			if math.IsInf(v, 1) {
				lat = append(lat, v)
			}
		}
		fmt.Fprintf(out, "calmest rounds %v: %d requests", calm, len(lat))
		if stalls {
			fmt.Fprintf(out, " (fewer than %d untouched by steal, so the stalled ones count too)", min)
		}
		return lat
	}
	p50 := percentile(pool(minMedianSamples), 50)
	fmt.Fprintf(out, ": p50_ms %.3f ms (printed only)\n", p50)
	tailLat := pool(minOpenSamples)
	fmt.Fprintf(out, ": p99_ms %.3f ms (printed only)", percentile(tailLat, 99))
	if highestPercentile(len(tailLat)) < 99 {
		fmt.Fprintf(out, ", with fewer than %d samples beyond it", minTail)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "max_rps %.0f req/s: the fastest of %d closed-loop phases, median %.0f (printed only)\n",
		percentile(rps, 100), len(rps), median(rps))
	fmt.Fprintf(out, "workload %s seed %d: %d rounds of open loop at %.0f req/s (%.1fs in all) then closed loop with %d connections for %s\n",
		s.name, cfg.seed, rounds, s.rate, openElapsed, conns, window)
	valid := true
	for _, ph := range []struct {
		name string
		st   phaseStats
	}{{"open", ost}, {"closed", cst}} {
		late50, late99 := percentile(ph.st.latenessMS, 50), percentile(ph.st.latenessMS, 99)
		lat99 := percentile(append([]float64(nil), ph.st.latMS...), 99)
		ok := !(late99 > 0.5*lat99)
		valid = valid && ok
		fmt.Fprintf(out, "phase %-6s sent=%d ok=%d failed=%d generator_lateness_ms p50=%.3f p99=%.3f generator_bound=%v\n",
			ph.name, ph.st.sent, ph.st.ok, ph.st.failed, late50, late99, !ok)
	}
	if !valid {
		fmt.Fprintln(out, "RUN INVALID: the generator's own lateness, not solverd, set the tail latency")
	}
	fmt.Fprintf(out, "machine steal during the open-loop phases: %.2f%% of CPU time\n",
		100*float64(stolen)/math.Max(1, float64(elapsedTicks)))

	if !cfg.trace {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["cpu_us_per_req"] = metric{cpuPerReq, "us"}
		res.Metrics["rss_mb"] = metric{rss, "MiB"}
	} else {
		layers, err := layerMetrics(cfg, wl, before, after, openPhs, closedPhs, p50)
		if err != nil {
			return nil, err
		}
		res.Metrics = layers
	}
	want := endToEndMetrics
	if cfg.trace {
		want = perLayerMetrics
	}
	if len(res.Metrics) != len(want) {
		return nil, fmt.Errorf("reported %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, k := range want {
		if _, ok := res.Metrics[k]; !ok {
			return nil, fmt.Errorf("metric %s not reported", k)
		}
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// setUp waits for every node's health check and, in a fleet, for every node
// to see all of its peers up, then runs the workload's warm-up through the
// entry node.
func setUp(ctx context.Context, hc *http.Client, nodes []*node, wl workload) error {
	hctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := waitHealthy(hctx, hc, nodes); err != nil {
		return err
	}
	if len(nodes) > 1 {
		for _, n := range nodes {
			for {
				m, err := scrape(hc, n)
				if err != nil {
					return err
				}
				if m["solverd_cluster_peer_up"] >= float64(len(nodes)-1) {
					break
				}
				select {
				case <-hctx.Done():
					return fmt.Errorf("solverd %s never saw its peers up", n.addr)
				case <-time.After(5 * time.Millisecond):
				}
			}
		}
	}
	return wl.warm(ctx, hc, nodes[0].addr)
}

// layerMetrics computes the per-layer metrics of a traced run.
func layerMetrics(cfg runConfig, wl workload, before, after promSample, openPhs, closedPhs []*phase, p50 float64) (map[string]metric, error) {
	m := map[string]metric{}
	reqs, solveReqs := 0.0, 0.0
	for _, ph := range append(append([]*phase(nil), openPhs...), closedPhs...) {
		reqs += float64(ph.n)
		for _, r := range ph.reqs[:ph.n] {
			if r.solveShaped {
				solveReqs++
			}
		}
	}
	d := func(name string) float64 { return delta(before, after, name) }
	share := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m["admission.coalesced_share"] = metric{share(d("solverd_admission_coalesced_total"), solveReqs), "ratio"}
	hits, misses := d("solverd_cache_hits_total"), d("solverd_cache_misses_total")
	m["server.cache_hit_ratio"] = metric{share(hits, hits+misses), "ratio"}
	m["server.solver_runs_per_req"] = metric{share(d("solverd_solves_total"), reqs), "ratio"}
	m["server.step_pops_per_req"] = metric{share(d("solverd_solve_step_populations_total"), reqs), "count"}
	m["estimate.refits"] = metric{d("solverd_estimate_fits_total"), "count"}
	m["estimate.invalidations"] = metric{d("solverd_estimate_cache_invalidations_total"), "count"}
	m["cluster.forward_share"] = metric{share(d("solverd_cluster_forwards_total"), reqs), "ratio"}
	m["cluster.hedge_share"] = metric{share(d("solverd_cluster_hedges_total"), reqs), "ratio"}
	m["cluster.fallback_share"] = metric{share(d("solverd_cluster_local_fallbacks_total"), reqs), "ratio"}
	m["cluster.forward_ms"] = metric{1e3 * share(d("solverd_cluster_forward_duration_seconds_sum"),
		d("solverd_cluster_forward_duration_seconds_count")), "ms"}

	// Response headers of the open-loop phase.
	var bytes, poolWait, outside []float64
	for _, openPh := range openPhs {
		for i, rec := range openPh.recs[:openPh.n] {
			if rec.err != nil {
				continue
			}
			st, err := parseServerTiming(rec.timing)
			if err != nil {
				return nil, err
			}
			if openPh.reqs[i].solveShaped {
				bytes = append(bytes, float64(rec.bytes))
			}
			if _, miss := st.phase("solve"); miss {
				c, _ := st.phase("cache")
				poolWait = append(poolWait, c)
			}
			outside = append(outside, ms(rec.done-rec.sent)-st.total())
		}
	}
	m["modelio.resp_bytes"] = metric{mean(bytes), "bytes"}
	pw := 0.0
	if len(poolWait) > 0 {
		pw = percentile(poolWait, 99)
	}
	m["server.pool_wait_ms"] = metric{pw, "ms"}
	m["server.outside_ms"] = metric{median(outside), "ms"}

	// The in-process replay: once bare, once with spans.
	bare, _, err := wl.replay(newTracer(false), cfg.spec.replayN)
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	bareP50 := median(bare.reqUS)
	bare = nil
	runtime.GC()
	t := newTracer(true)
	st, pops, err := wl.replay(t, cfg.spec.replayN)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	if err := t.write(filepath.Join(cfg.spans, cfg.spec.name+".jsonl")); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	m["modelio.decode_us"] = metric{t.p50US("modelio.decode"), "us"}
	m["modelio.key_us"] = metric{t.p50US("modelio.key"), "us"}
	m["modelio.encode_us"] = metric{t.p50US("modelio.encode"), "us"}
	m["admission.evaluate_us"] = metric{t.p50US("admission.evaluate"), "us"}
	m["server.hit_us"] = metric{t.p50US("server.hit"), "us"}
	mo := 0.0
	if len(st.missOverheadUS) > 0 {
		mo = median(st.missOverheadUS)
	}
	m["server.miss_overhead_us"] = metric{mo, "us"}
	m["core.ns_per_pop.exact"] = metric{pops.nsPerPop("exact"), "ns"}
	m["core.ns_per_pop.multiserver"] = metric{pops.nsPerPop("multiserver"), "ns"}
	m["core.ns_per_pop.mvasd"] = metric{pops.nsPerPop("mvasd"), "ns"}
	m["estimate.observe_us"] = metric{t.p50US("estimate.observe"), "us"}
	rf := 0.0
	if len(st.refitMS) > 0 {
		rf = median(st.refitMS)
	}
	m["estimate.refit_ms"] = metric{rf, "ms"}
	m["trace_overhead_pct"] = metric{100 * (median(st.reqUS) - bareP50) / 1e3 / p50, "%"}
	return m, nil
}

// fingerprint describes the machine and build a result was measured on.
// The commit is the binary's VCS revision, or a hash of the source tree when
// the build had none or was made from a tree with uncommitted changes.
func fingerprint(bin string) (string, error) {
	info, err := buildinfo.ReadFile(bin)
	if err != nil {
		return "", fmt.Errorf("reading the build info of %s: %w", bin, err)
	}
	settings := map[string]string{}
	for _, s := range info.Settings {
		settings[s.Key] = s.Value
	}
	commit := settings["vcs.revision"]
	if commit == "" || settings["vcs.modified"] == "true" {
		commit = "tree:" + treeHash(".")
	}
	gomaxprocs := os.Getenv("GOMAXPROCS")
	if gomaxprocs == "" {
		gomaxprocs = fmt.Sprint(runtime.NumCPU())
	}
	return fmt.Sprintf("machine: cpu=%q nproc=%d gomaxprocs=%s go=%s commit=%s",
		cpuModel(), runtime.NumCPU(), gomaxprocs, info.GoVersion, commit), nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeHash identifies a source tree that is not a git checkout: a hash of
// every Go source and module file under root, build outputs excluded.
func treeHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the fingerprint
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
