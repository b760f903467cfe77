package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux platform Go supports.
const clockTick = 100

// node is one running solverd process on loopback.
type node struct {
	addr string
	cmd  *exec.Cmd
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

// freePorts reserves n distinct loopback ports by binding and releasing
// them; solverd binds them again a moment later.
func freePorts(n int) ([]int, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a port: %w", err)
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// fleetCandidates is how many sets of ports startFleet weighs for a fleet.
const fleetCandidates = 32

// startFleet launches count solverd processes; with count > 1 they form
// one cluster fabric with -replication 1, so every key has one owner. The
// ring places keys by the nodes' addresses, so of several free port sets it
// takes the one that splits keys most evenly between the nodes: every run
// then sends the same share of its requests over the forward hop, whatever
// its seed and ports.
func startFleet(bin string, count int, keys []string) ([]*node, error) {
	candidates := 1
	if count > 1 {
		candidates = fleetCandidates
	}
	ports, err := freePorts(count * candidates)
	if err != nil {
		return nil, err
	}
	var addrs []string
	best := len(keys) + 1
	for c := 0; c < candidates; c++ {
		cand := make([]string, count)
		for i, p := range ports[c*count : (c+1)*count] {
			cand[i] = fmt.Sprintf("127.0.0.1:%d", p)
		}
		if skew := splitSkew(cand, keys); skew < best {
			addrs, best = cand, skew
		}
	}
	var nodes []*node
	for _, addr := range addrs {
		args := []string{"-addr", addr}
		if count > 1 {
			args = append(args, "-advertise", addr, "-peers", strings.Join(addrs, ","), "-replication", "1")
		}
		n, err := startNode(bin, addr, args)
		if err != nil {
			stopFleet(nodes)
			return nil, err
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

// splitSkew is how far the busiest node's share of keys lies above an even
// split, on the ring solverd builds over addrs.
func splitSkew(addrs, keys []string) int {
	ring := cluster.NewRing(addrs, cluster.DefaultVirtualNodes)
	owned := map[string]int{}
	most := 0
	for _, k := range keys {
		owned[ring.Owner(k)]++
		most = max(most, owned[ring.Owner(k)])
	}
	return most*len(addrs) - len(keys)
}

// startNode runs one solverd with its log discarded. The child is killed if
// the benchmark dies first.
func startNode(bin, addr string, args []string) (*node, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting solverd: %w", err)
	}
	n := &node{addr: addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		n.err = cmd.Wait()
		close(n.done)
	}()
	return n, nil
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited within the grace period. It returns once the process
// has been reaped.
func (n *node) stop() {
	select {
	case <-n.done:
		return
	default:
	}
	_ = n.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-n.done:
	case <-time.After(5 * time.Second):
		_ = n.cmd.Process.Kill()
		<-n.done
	}
}

func stopFleet(nodes []*node) {
	for _, n := range nodes {
		n.stop()
	}
}

// waitHealthy polls /healthz on every node until each answers 200.
func waitHealthy(ctx context.Context, hc *http.Client, nodes []*node) error {
	for _, n := range nodes {
		for {
			select {
			case <-n.done:
				return fmt.Errorf("solverd %s exited during start-up: %v", n.addr, n.err)
			default:
			}
			resp, err := hc.Get("http://" + n.addr + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("solverd %s never became healthy: %w", n.addr, ctx.Err())
			case <-time.After(250 * time.Microsecond):
			}
		}
	}
	return nil
}

// scrape fetches and parses one node's /metrics.
func scrape(hc *http.Client, n *node) (promSample, error) {
	resp, err := hc.Get("http://" + n.addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", n.addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", n.addr, resp.StatusCode)
	}
	return parsePrometheus(resp.Body)
}

// scrapeFleet sums every node's /metrics.
func scrapeFleet(hc *http.Client, nodes []*node) (promSample, error) {
	var all []promSample
	for _, n := range nodes {
		s, err := scrape(hc, n)
		if err != nil {
			return nil, err
		}
		all = append(all, s)
	}
	return addProm(all...), nil
}

// cpuSeconds returns utime+stime of every node's process, summed over all
// of its threads (/proc/<pid>/stat fields 14 and 15).
func cpuSeconds(nodes []*node) (float64, error) {
	total := 0.0
	for _, n := range nodes {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
		if err != nil {
			return 0, fmt.Errorf("reading process CPU: %w", err)
		}
		ticks, err := statCPUTicks(b)
		if err != nil {
			return 0, err
		}
		total += float64(ticks) / clockTick
	}
	return total, nil
}

// statCPUTicks extracts utime+stime from a /proc/<pid>/stat line. The comm
// field may contain spaces, so fields are counted after its closing paren.
func statCPUTicks(stat []byte) (uint64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(stat[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	u, err1 := strconv.ParseUint(f[11], 10, 64)
	s, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times %q %q", f[11], f[12])
	}
	return u + s, nil
}

// cpuStat reads the machine-wide CPU time counters of /proc/stat: the
// ticks stolen by the hypervisor and the total over user, nice, system,
// idle, iowait, irq, softirq and steal.
func cpuStat() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("reading machine CPU time: %w", err)
	}
	return parseCPUStat(b)
}

// parseCPUStat parses the aggregate "cpu" line that /proc/stat starts with.
func parseCPUStat(b []byte) (steal, total uint64, err error) {
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("malformed /proc/stat cpu line")
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, nil
}

// peakRSSMiB sums VmHWM (the process's peak resident set) over the nodes.
func peakRSSMiB(nodes []*node) (float64, error) {
	total := 0.0
	for _, n := range nodes {
		kb, err := statusField(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid), "VmHWM:")
		if err != nil {
			return 0, err
		}
		total += float64(kb) / 1024
	}
	return total, nil
}

// statusField reads one "Key: value kB" line of a /proc status file.
func statusField(path, key string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("reading process memory: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key) {
			continue
		}
		fields := strings.Fields(line[len(key):])
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}
