package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// request is one generated HTTP call. The program under test sees only
// method, path and body; the rest is the benchmark's bookkeeping.
type request struct {
	method string
	path   string // path plus query
	body   []byte
	// due is the send time relative to the open-loop phase start.
	due time.Duration
	// ref indexes the workload's own check data for this request.
	ref int
	// solveShaped marks /v1/solve and /v1/sweep calls (the requests the
	// coalescer and solve cache see).
	solveShaped bool
	// twin marks a request due together with the one before it.
	twin bool
}

// record is what the generator observed for one request. Times are offsets
// from the phase start.
type record struct {
	conn   int
	sent   time.Duration
	done   time.Duration
	freeAt time.Duration // when this request's connection became free
	bytes  int
	timing string // the Server-Timing header
	err    error  // transport, status or correctness failure
}

// checker verifies one response body; it runs off the connections' send
// path, and sees each connection's responses in the order they completed.
type checker func(req *request, rec *record, body []byte) error

// phase is the outcome of one open- or closed-loop phase.
type phase struct {
	open    bool
	elapsed time.Duration // phase start to last completion
	reqs    []*request
	recs    []record // recs[i] belongs to reqs[i]; only the first n are used
	n       int      // requests attempted
	cpuS    float64  // solverd CPU seconds over the phase
	window  time.Duration
	// steal is the machine's stolen CPU time read every stealEvery
	// through an open-loop phase.
	steal []stealSample
}

// stealSample is the machine's stolen CPU time, summed over its CPUs in
// /proc/stat ticks, read at an offset from the phase start.
type stealSample struct {
	at    time.Duration
	ticks uint64
}

const (
	// stealEvery is how often an open-loop phase reads /proc/stat (about
	// 30 µs a read).
	stealEvery = 10 * time.Millisecond
	// stealTick is the unit of the /proc/stat steal column (USER_HZ).
	stealTick = 10 * time.Millisecond
	// stealSettle is how long after a stall the queued requests take to
	// drain; requests due then still carry the stall.
	stealSettle = 20 * time.Millisecond
)

// conns is the number of client connections: at most the machine's core
// count (two on the reference box), from this one process.
const conns = 2

// bodies recycles response buffers between the connections and the
// checker, so the generator's own allocation (and GC) stays off the
// latencies it measures.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// runPhase drives reqs at target. An open-loop phase sends each request at
// its due time on whichever connection is free, so a stalled server makes
// later requests wait and that wait counts in their latency. A closed-loop
// phase keeps every connection busy back to back until window elapses.
func runPhase(ctx context.Context, target string, reqs []*request, open bool,
	window time.Duration, check checker, cpu func() (float64, error)) (*phase, error) {
	ph := &phase{open: open, reqs: reqs, recs: make([]record, len(reqs)), window: window}
	type done struct {
		i    int
		body *bytes.Buffer
	}
	// Sized to the number of sends, so a slow checker never blocks a
	// connection.
	results := make(chan done, len(reqs))
	var checkWG sync.WaitGroup
	checkWG.Add(1)
	go func() {
		defer checkWG.Done()
		for d := range results {
			rec := &ph.recs[d.i]
			if rec.err == nil {
				rec.err = check(reqs[d.i], rec, d.body.Bytes())
			}
			bodies.Put(d.body)
		}
	}()

	cpu0, err := cpu()
	if err != nil {
		return nil, err
	}
	var next, sent atomic.Int64
	start := time.Now()
	end := start.Add(window)
	stopSteal := make(chan struct{})
	var stealWG sync.WaitGroup
	if open {
		stealWG.Add(1)
		go func() {
			defer stealWG.Done()
			tick := time.NewTicker(stealEvery)
			defer tick.Stop()
			for {
				if steal, _, err := cpuStat(); err == nil {
					ph.steal = append(ph.steal, stealSample{time.Since(start), steal})
				}
				select {
				case <-stopSteal:
					return
				case <-tick.C:
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			}}
			defer client.CloseIdleConnections()
			freeAt := time.Duration(0)
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if open {
					sleepUntil(start.Add(r.due))
				} else if !time.Now().Before(end) {
					return
				}
				sent.Add(1)
				rec := &ph.recs[i]
				rec.conn = c
				rec.freeAt = freeAt
				rec.sent = time.Since(start)
				buf := bodies.Get().(*bytes.Buffer)
				buf.Reset()
				rec.timing, rec.err = send(ctx, client, target, r, buf)
				rec.done = time.Since(start)
				freeAt = rec.done
				rec.bytes = buf.Len()
				results <- done{i: i, body: buf}
			}
		}(c)
	}
	wg.Wait()
	last := time.Since(start)
	close(stopSteal)
	stealWG.Wait()
	close(results)
	checkWG.Wait()
	cpu1, err := cpu()
	if err != nil {
		return nil, err
	}
	ph.cpuS = cpu1 - cpu0
	// Indices are taken in order and a connection stops taking them once
	// the window has passed, so the sent requests are exactly reqs[:n].
	ph.n = int(sent.Load())
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if !open && ph.n == len(reqs) {
		return nil, fmt.Errorf("the closed-loop stream of %d requests ran out before the window ended", len(reqs))
	}
	ph.elapsed = last
	return ph, nil
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The Go
// timer (time.Sleep) wakes up to a millisecond late on Linux, which would
// show up as generator lateness in every open-loop latency; the raw
// syscall wakes within tens of microseconds without spinning a core.
func sleepUntil(t time.Time) {
	for {
		wait := time.Until(t)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// send performs one request, reads the whole body into buf and returns the
// Server-Timing header.
func send(ctx context.Context, client *http.Client, target string, r *request, buf *bytes.Buffer) (string, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	hr, err := http.NewRequestWithContext(ctx, r.method, "http://"+target+r.path, body)
	if err != nil {
		return "", err
	}
	if r.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(hr)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", fmt.Errorf("reading response: %w", err)
	}
	timing := resp.Header.Get("Server-Timing")
	if resp.StatusCode/100 != 2 {
		return timing, fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, resp.StatusCode, buf.String())
	}
	return timing, nil
}

// phaseStats summarises one phase for reporting.
type phaseStats struct {
	sent, ok, failed int
	latMS            []float64 // per attempted request; +Inf for failures
	// cleanLatMS leaves out the requests of an open-loop phase that were
	// in flight while the machine lost CPU time to its hypervisor; failures
	// always stay in.
	cleanLatMS []float64
	latenessMS []float64
	firstErr   error
}

// interval is a span of offsets from the phase start.
type interval struct{ from, to time.Duration }

// stolenIntervals turns steal readings into the spans whose requests a
// stall may have delayed. A rise of d ticks between two readings is up to
// d+1 ticks of stall (the counter is rounded down), which the guest
// accounts only once it runs again, up to a tick after the stall ended; the
// queue the stall built then drains for stealSettle.
func stolenIntervals(samples []stealSample) []interval {
	var out []interval
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if b.ticks <= a.ticks {
			continue
		}
		from := b.at - time.Duration(b.ticks-a.ticks+2)*stealTick
		out = append(out, interval{min(from, a.at), b.at + stealSettle})
	}
	return out
}

// overlaps reports whether [from, to] meets any of the intervals.
func overlaps(ivs []interval, from, to time.Duration) bool {
	for _, iv := range ivs {
		if from <= iv.to && iv.from <= to {
			return true
		}
	}
	return false
}

// stats computes latencies. Open-loop latency runs from the request's due
// time, so time spent waiting for a free connection counts; closed-loop
// latency runs from the send. Only requests completed inside a closed-loop
// window count as ok there.
func (ph *phase) stats() phaseStats {
	st := phaseStats{sent: ph.n}
	stolen := stolenIntervals(ph.steal)
	for i := 0; i < ph.n; i++ {
		rec := &ph.recs[i]
		start := rec.sent
		if ph.open {
			start = ph.reqs[i].due
		}
		lateFrom := rec.freeAt
		if ph.open && ph.reqs[i].due > lateFrom {
			lateFrom = ph.reqs[i].due
		}
		st.latenessMS = append(st.latenessMS, ms(rec.sent-lateFrom))
		if rec.err != nil {
			st.failed++
			st.latMS = append(st.latMS, math.Inf(1))
			st.cleanLatMS = append(st.cleanLatMS, math.Inf(1))
			if st.firstErr == nil {
				st.firstErr = rec.err
			}
			continue
		}
		st.latMS = append(st.latMS, ms(rec.done-start))
		if !overlaps(stolen, start, rec.done) {
			st.cleanLatMS = append(st.cleanLatMS, ms(rec.done-start))
		}
		if ph.open || rec.done <= ph.window {
			st.ok++
		}
	}
	return st
}

// mergeStats pools the phase statistics of several blocks.
func mergeStats(parts []phaseStats) phaseStats {
	var out phaseStats
	for _, p := range parts {
		out.sent += p.sent
		out.ok += p.ok
		out.failed += p.failed
		out.latMS = append(out.latMS, p.latMS...)
		out.cleanLatMS = append(out.cleanLatMS, p.cleanLatMS...)
		out.latenessMS = append(out.latenessMS, p.latenessMS...)
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
