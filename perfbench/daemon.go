package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"perfplay/internal/corpus"
)

// daemon is one perfplayd process started from the built binary on a
// loopback port, with its own corpus (and, by the daemon's default, a
// journal next to it).
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{}
	log    *os.File
	base   string
	client *http.Client
	remote *corpus.Remote
}

// startDaemon boots perfplayd with every flag at its shipped default
// except the listen address and the corpus directory, and returns once
// /healthz answers.
func startDaemon(bin, dir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "perfplayd.log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-corpus", filepath.Join(dir, "corpus"))
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without stopping the daemon, the kernel
	// kills the daemon too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start perfplayd: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		exited: make(chan struct{}),
		log:    logf,
		base:   "http://" + addr,
		// Two clients each hold one connection for submits and one for
		// long-polls.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	d.remote = &corpus.Remote{Base: d.base, Client: d.client}
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
		close(d.exited)
	}()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			d.log.Close()
			out, _ := os.ReadFile(logf.Name()) // best effort: the log only explains the failure
			return nil, fmt.Errorf("perfplayd exited during boot (%v): %s", cmd.ProcessState, out[max(0, len(out)-2048):])
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("perfplayd did not answer /healthz within 30s")
		}
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop sends SIGTERM, waits for the daemon to drain and exit (killing
// it after 60s), and returns its peak resident memory in MiB.
func (d *daemon) stop() (peakMB float64, err error) {
	defer d.log.Close()
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return 0, errors.New("perfplayd did not stop within 60s of SIGTERM")
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no resource usage for perfplayd")
	}
	if !d.cmd.ProcessState.Success() {
		err = fmt.Errorf("perfplayd exited with %v", d.cmd.ProcessState)
	}
	return float64(ru.Maxrss) / 1024, err // Maxrss is in KiB on Linux
}

// daemonJob is the part of GET /jobs/{id} the benchmark reads.
type daemonJob struct {
	Status    string    `json:"status"`
	Error     string    `json:"error"`
	Report    string    `json:"report"`
	CacheHit  bool      `json:"cache_hit"`
	Submitted time.Time `json:"submitted"`
	Finished  time.Time `json:"finished"`
	Timings   []struct {
		Stage  string `json:"stage"`
		WallNS int64  `json:"wall_ns"`
	} `json:"timings"`
}

// jobResult is one daemon job as the client saw it.
type jobResult struct {
	Job     daemonJob
	Push    time.Duration // POST /traces round trip (cold jobs only)
	Submit  time.Duration // POST /analyze round trip
	Latency time.Duration // first request sent → done received
	Err     error
}

// runJob performs one job the way perfplay -daemon does: a cold job
// first stores its trace bytes with POST /traces, then every job
// submits {"trace": digest} (with "schemes" for a reflag) and long-polls
// GET /jobs/{id}?wait= until the job settles.
func (d *daemon) runJob(j plannedJob, tr *poolTrace) jobResult {
	var r jobResult
	start := time.Now()
	if j.Class == cold {
		meta, err := d.remote.Push(tr.Bytes)
		r.Push = time.Since(start)
		if err != nil {
			r.Err = err
			return r
		}
		if meta.Digest != tr.Digest {
			r.Err = fmt.Errorf("corpus stored the trace as %s, want %s", meta.Digest, tr.Digest)
			return r
		}
	}
	spec, _ := json.Marshal(map[string]any{"trace": tr.Digest, "schemes": j.Class == reflag}) // plain map: cannot fail
	submitStart := time.Now()
	id, accepted, err := d.remote.SubmitAnalyze(spec)
	r.Submit = time.Since(submitStart)
	if err != nil {
		r.Err = err
		return r
	}
	if accepted != d.base {
		r.Err = fmt.Errorf("job %s was redirected to %s", id, accepted)
		return r
	}
	for {
		resp, err := d.client.Get(d.base + "/jobs/" + id + "?wait=30s")
		if err != nil {
			r.Err = err
			return r
		}
		var dj daemonJob
		derr := json.NewDecoder(resp.Body).Decode(&dj)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || derr != nil {
			r.Err = fmt.Errorf("poll job %s: %s (%v)", id, resp.Status, derr)
			return r
		}
		switch dj.Status {
		case "done":
			r.Latency = time.Since(start)
			r.Job = dj
			return r
		case "failed":
			r.Err = fmt.Errorf("job %s failed: %s", id, dj.Error)
			return r
		}
	}
}

// scrape reads GET /metrics into a map from series (name plus label
// block, as rendered) to value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: bad sample %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumSeries adds up every series of the named family whose label block
// contains all the given label pairs (written as `key="value"`).
func sumSeries(m map[string]float64, name string, labels ...string) float64 {
	var s float64
	for series, v := range m {
		fam, block, _ := strings.Cut(series, "{")
		if fam != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(block, l) {
				ok = false
			}
		}
		if ok {
			s += v
		}
	}
	return s
}
