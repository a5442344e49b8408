package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemons compiles cmd/stgqd and cmd/stgqgw of the module rooted at
// moduleRoot into binDir. It is not part of setup_s.
func buildDaemons(ctx context.Context, moduleRoot, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs+string(os.PathSeparator), "./cmd/stgqd", "./cmd/stgqgw")
	cmd.Dir = moduleRoot
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build ./cmd/stgqd ./cmd/stgqgw: %w\n%s", err, out)
	}
	return nil
}

// proc is one child process in its own process group.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	url  string
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// start launches bin with args, logging to logPath (appended, so a
// restart keeps the first life's output).
func start(name, bin, logPath, url string, args ...string) (*proc, error) {
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// Own process group so kill reaches anything the child spawns; the
	// death signal covers a benchmark that is itself killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	return &proc{name: name, cmd: cmd, log: lf, url: url}, nil
}

// kill sends SIGKILL to the child's process group and waits for it.
func (p *proc) kill() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = syscall.Kill(-p.pid(), syscall.SIGKILL) // already gone is fine
	_ = p.cmd.Wait()                            // exit status of a killed child is expected
	p.log.Close()
}

// cpuSeconds is utime+stime of the process from /proc/<pid>/stat.
func (p *proc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields are
	// counted after the closing parenthesis (state is field 3).
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", p.pid())
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad tick counts", p.pid())
	}
	const ticksPerSecond = 100 // USER_HZ, fixed on Linux
	return (utime + stime) / ticksPerSecond, nil
}

// rssPeakMB is VmHWM from /proc/<pid>/status.
func (p *proc) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", p.pid())
}

// cluster is leader + one follower + gateway on loopback, default flags.
type cluster struct {
	binDir, dir string
	n           int
	leader      *proc
	follower    *proc
	gateway     *proc
	hc          *http.Client
	// stages are the timed steps of the boot, in order.
	stages []stage
	// followerCatchup is the time from starting the follower to its
	// reaching the leader's durable position (its snapshot bootstrap).
	followerCatchup time.Duration
}

// stage is one timed step of a set-up; the traced run turns them into
// spans.
type stage struct {
	name       string
	start, end time.Time
}

func (c *cluster) procs() []*proc { return []*proc{c.leader, c.follower, c.gateway} }

func (c *cluster) stop() {
	for _, p := range c.procs() {
		p.kill()
	}
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// statusDoc is the part of GET /status the benchmark reads.
type statusDoc struct {
	People     int    `json:"people"`
	Role       string `json:"role"`
	Healthy    bool   `json:"healthy"`
	DurableSeq uint64 `json:"durableSeq"`
	Journal    *struct {
		Batches        uint64 `json:"batches"`
		Records        uint64 `json:"records"`
		Fsyncs         uint64 `json:"fsyncs"`
		SegmentBytes   int64  `json:"segmentBytes"`
		ReplayedOnBoot int    `json:"replayedOnBoot"`
	} `json:"journal"`
}

// gatewayStatusDoc is the part of GET /gateway/status the benchmark reads.
type gatewayStatusDoc struct {
	Leader   string `json:"leader"`
	Backends []struct {
		Healthy bool `json:"healthy"`
	} `json:"backends"`
}

func getJSON(ctx context.Context, hc *http.Client, url string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain for connection reuse
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func (c *cluster) status(ctx context.Context, p *proc) (statusDoc, error) {
	var st statusDoc
	err := getJSON(ctx, c.hc, p.url+"/status", &st)
	return st, err
}

// await polls cond every 10 ms until it holds, the child exits, or the
// deadline passes.
func await(ctx context.Context, what string, p *proc, limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for {
		if cond() {
			return nil
		}
		if err := syscall.Kill(p.pid(), 0); err != nil {
			return fmt.Errorf("%s: %s exited early (see %s)", what, p.name, p.log.Name())
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not reached within %v (see %s)", what, limit, p.log.Name())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

const bootLimit = 90 * time.Second

// bootCluster starts the three processes and returns once the warm-up
// barrier's static half holds: the leader serves n people, the follower
// is healthy at the leader's durable position with the same n, and the
// gateway knows the leader and sees both backends healthy.
func bootCluster(ctx context.Context, binDir, dir, dataPath string, n int) (*cluster, error) {
	ports, err := freePorts(3)
	if err != nil {
		return nil, err
	}
	url := func(i int) string { return "http://127.0.0.1:" + strconv.Itoa(ports[i]) }
	addr := func(i int) string { return "127.0.0.1:" + strconv.Itoa(ports[i]) }
	c := &cluster{binDir: binDir, dir: dir, n: n, hc: &http.Client{Timeout: 10 * time.Second}}
	ok := false
	defer func() {
		if !ok {
			c.stop()
		}
	}()

	t0 := time.Now()
	if err := c.startLeader(addr(0), url(0), dataPath); err != nil {
		return nil, err
	}
	if err := c.awaitLeader(ctx); err != nil {
		return nil, err
	}
	c.stages = append(c.stages, stage{"cluster.leader_boot", t0, time.Now()})

	t0 = time.Now()
	c.follower, err = start("follower", filepath.Join(binDir, "stgqd"), filepath.Join(dir, "follower.log"), url(1),
		"-addr", addr(1), "-data-dir", filepath.Join(dir, "follower"), "-follow", url(0))
	if err != nil {
		return nil, err
	}
	if err := c.awaitCaughtUp(ctx); err != nil {
		return nil, err
	}
	c.followerCatchup = time.Since(t0)
	c.stages = append(c.stages, stage{"cluster.follower_catchup", t0, time.Now()})
	t0 = time.Now()

	c.gateway, err = start("gateway", filepath.Join(binDir, "stgqgw"), filepath.Join(dir, "gateway.log"), url(2),
		"-addr", addr(2), "-backends", url(0)+","+url(1))
	if err != nil {
		return nil, err
	}
	err = await(ctx, "gateway sees leader and follower", c.gateway, bootLimit, func() bool {
		var gs gatewayStatusDoc
		if getJSON(ctx, c.hc, c.gateway.url+"/gateway/status", &gs) != nil || gs.Leader != c.leader.url {
			return false
		}
		healthy := 0
		for _, b := range gs.Backends {
			if b.Healthy {
				healthy++
			}
		}
		return healthy == 2
	})
	if err != nil {
		return nil, err
	}
	c.stages = append(c.stages, stage{"cluster.gateway_ready", t0, time.Now()})
	ok = true
	return c, nil
}

// startLeader launches the leader; dataPath is empty on a restart, which
// must come back from the data dir alone.
func (c *cluster) startLeader(addr, url, dataPath string) error {
	args := []string{"-addr", addr, "-data-dir", filepath.Join(c.dir, "leader")}
	if dataPath != "" {
		args = append(args, "-data", dataPath)
	}
	p, err := start("leader", filepath.Join(c.binDir, "stgqd"), filepath.Join(c.dir, "leader.log"), url, args...)
	c.leader = p
	return err
}

func (c *cluster) awaitLeader(ctx context.Context) error {
	return await(ctx, fmt.Sprintf("leader serves %d people", c.n), c.leader, bootLimit, func() bool {
		st, err := c.status(ctx, c.leader)
		return err == nil && st.People == c.n && st.Role == "leader"
	})
}

// awaitCaughtUp waits until the follower is healthy, holds the whole
// population and has applied everything the leader has made durable.
func (c *cluster) awaitCaughtUp(ctx context.Context) error {
	return await(ctx, "follower at the leader's durable seq", c.follower, bootLimit, func() bool {
		ls, err := c.status(ctx, c.leader)
		if err != nil {
			return false
		}
		fs, err := c.status(ctx, c.follower)
		return err == nil && fs.Healthy && fs.People == c.n && fs.DurableSeq == ls.DurableSeq
	})
}

// killRestartLeader SIGKILLs the leader and starts it again on the same
// data dir and address. It returns the time from exec to the first 200
// on /status.
func (c *cluster) killRestartLeader(ctx context.Context) (time.Duration, error) {
	old := c.leader
	old.kill()
	addr := strings.TrimPrefix(old.url, "http://")
	t0 := time.Now()
	if err := c.startLeader(addr, old.url, ""); err != nil {
		return 0, err
	}
	if err := c.awaitLeader(ctx); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// cpuSeconds sums the three server processes' CPU time.
func (c *cluster) cpuSeconds() (float64, error) {
	var sum float64
	for _, p := range c.procs() {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// scrape reads the named counters from a process's GET /metrics
// (Prometheus text). A counter the process has not registered reads 0.
func scrape(ctx context.Context, hc *http.Client, url string, names ...string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", url, resp.StatusCode)
	}
	out := make(map[string]float64, len(names))
	for _, line := range strings.Split(string(body), "\n") {
		for _, name := range names {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", name, err)
				}
				out[name] = v
			}
		}
	}
	return out, nil
}
