package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// minTail is how many samples must lie beyond a reported percentile: a
// percentile with fewer samples past it is one or two outliers, not a
// property of the system.
const minTail = 10

// candidatePercentiles are the tail percentiles the benchmark may report,
// highest first.
var candidatePercentiles = []float64{99.99, 99.9, 99, 90, 50}

// highestPercentile returns the highest candidate percentile that has at
// least minTail of n samples beyond it, or 0 when even the median has not.
func highestPercentile(n int) float64 {
	for _, p := range candidatePercentiles {
		if tailCount(n, p) >= minTail {
			return p
		}
	}
	return 0
}

// tailCount is the number of samples strictly beyond the nearest-rank p-th
// percentile of n samples.
func tailCount(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank position of the p-th percentile.
func rank(n int, p float64) int {
	// The epsilon keeps binary rounding (99.9/100 > 0.999) from pushing
	// an exact rank one sample further out.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs, sorting xs in
// place. It returns NaN for an empty slice. +Inf entries (failed requests)
// sort last, so a failure counts as missing every latency limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median is percentile 50 of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// mean returns the arithmetic mean of xs, or 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// serverTiming is one parsed Server-Timing header: the duration of each
// named phase in milliseconds, in header order.
type serverTiming struct {
	names []string
	durMS []float64
}

// parseServerTiming parses a Server-Timing value such as
// "cache;dur=0.412, solve;dur=17.204". Entries without a dur parameter count
// as zero; a malformed dur is an error.
func parseServerTiming(h string) (serverTiming, error) {
	var st serverTiming
	if strings.TrimSpace(h) == "" {
		return st, nil
	}
	for _, entry := range strings.Split(h, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ";")
		name := strings.TrimSpace(parts[0])
		if name == "" {
			return serverTiming{}, fmt.Errorf("server-timing %q: empty metric name", h)
		}
		dur := 0.0
		for _, param := range parts[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(param), "=")
			if !ok || strings.TrimSpace(k) != "dur" {
				continue
			}
			d, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err != nil {
				return serverTiming{}, fmt.Errorf("server-timing %q: dur %q: %v", h, v, err)
			}
			dur = d
		}
		st.names = append(st.names, name)
		st.durMS = append(st.durMS, dur)
	}
	return st, nil
}

// phase returns the summed duration of the named phase and whether it
// appeared.
func (st serverTiming) phase(name string) (float64, bool) {
	total, found := 0.0, false
	for i, n := range st.names {
		if n == name {
			total += st.durMS[i]
			found = true
		}
	}
	return total, found
}

// total is the sum of every phase.
func (st serverTiming) total() float64 {
	s := 0.0
	for _, d := range st.durMS {
		s += d
	}
	return s
}

// promSample is a Prometheus text-format scrape reduced to what the
// benchmark diffs: every sample's value summed per metric name (labels
// dropped), so a family with one series per label set reads as its total.
type promSample map[string]float64

// parsePrometheus reads the Prometheus text exposition format. Comment and
// blank lines are skipped; a sample line whose value does not parse is an
// error.
func parsePrometheus(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest := line, ""
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if strings.HasPrefix(rest, "{") {
			end := labelsEnd(rest)
			if end < 0 {
				return nil, fmt.Errorf("metrics line %q: unterminated labels", line)
			}
			rest = rest[end+1:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		out[name] += v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

// labelsEnd returns the index of the '}' closing the label set that s
// starts with, skipping braces inside quoted label values, or -1.
func labelsEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return i
		}
	}
	return -1
}

// delta returns after−before for one metric name.
func delta(before, after promSample, name string) float64 {
	return after[name] - before[name]
}

// addProm sums scrapes of several nodes.
func addProm(samples ...promSample) promSample {
	out := promSample{}
	for _, s := range samples {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}

// latencies returns the latencies of a phase's requests that did not fail:
// with stalls false only those no steal touched, with stalls true all.
func (st phaseStats) latencies(stalls bool) []float64 {
	from := st.cleanLatMS
	if stalls {
		from = st.latMS
	}
	var out []float64
	for _, v := range from {
		if !math.IsInf(v, 1) {
			out = append(out, v)
		}
	}
	return out
}

// calmRounds picks the calmest quarter of a run's open-loop rounds. The
// shared machine's speed swings by up to two times within seconds as its
// neighbours' load and the hypervisor's steal come and go, and a slow spell
// only ever adds latency, so the rounds with the lowest mean latency are
// the ones that measure solverd. It returns the indices of the best quarter
// of the rounds, best first, and of more rounds while they hold fewer than
// minSamples latencies of requests no steal touched. When even all rounds
// hold fewer than that, stalls is true: the picked rounds are counted with
// their stalled requests, enough of them for minSamples.
func calmRounds(rounds []phaseStats, minSamples int) (picked []int, stalls bool) {
	order := make([]int, len(rounds))
	means := make([]float64, len(rounds))
	clean := 0
	for i, st := range rounds {
		order[i] = i
		means[i] = mean(st.latencies(true))
		clean += len(st.latencies(false))
	}
	sort.SliceStable(order, func(a, b int) bool { return means[order[a]] < means[order[b]] })
	stalls = clean < minSamples
	n, samples := 0, 0
	for n < len(order) && (4*n < len(rounds) || samples < minSamples) {
		samples += len(rounds[order[n]].latencies(stalls))
		n++
	}
	return order[:n], stalls
}
