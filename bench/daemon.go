//go:build linux

package main

import (
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
	"unsafe"
)

// Fixed loopback ports: consistent-hash ownership on the dispatch front is
// a function of the backend URLs, so ephemeral ports would change which
// backend owns which job from run to run.
const (
	frontAddr    = "127.0.0.1:18077"
	backend1Addr = "127.0.0.1:18081"
	backend2Addr = "127.0.0.1:18082"
)

// daemon is one spawned jfserved process.
type daemon struct {
	addr string
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once the process has been reaped
}

func (d *daemon) base() string { return "http://" + d.addr }

// portFree fails when something already listens on addr: a stale jfserved
// there would silently absorb the load meant for the one under test.
func portFree(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("port %s is already bound (stale jfserved?): %w", addr, err)
	}
	return ln.Close()
}

// spawn starts a jfserved on addr in its own process group, with
// SIGKILL-on-parent-death, logging to a file in the run's temp dir.
func (h *harness) spawn(addr string, args ...string) (*daemon, error) {
	if err := portFree(addr); err != nil {
		return nil, err
	}
	h.spawned++
	logPath := filepath.Join(h.tmp, fmt.Sprintf("jfserved-%d.log", h.spawned))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	full := append([]string{
		"-addr", addr,
		"-gen", strconv.Itoa(h.opts.gen),
		"-seed", strconv.Itoa(corpusSeed),
	}, args...)
	cmd := exec.Command(filepath.Join(h.bin, "jfserved"), full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := h.plan.startOn(h.plan.daemonCPUs(h.spec.batch), cmd.Start); err != nil {
		return nil, fmt.Errorf("starting jfserved: %w", err)
	}
	d := &daemon{addr: addr, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant: liveness is read from done
		close(d.done)
	}()
	h.mu.Lock()
	h.live = append(h.live, d)
	h.mu.Unlock()
	return d, nil
}

// waitHealthy polls /healthz until the daemon answers, it exits, or the
// timeout passes.
func (h *harness) waitHealthy(d *daemon, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := h.client.Get(d.base() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("jfserved on %s exited during start-up:\n%s", d.addr, tail(d.log))
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("jfserved on %s not healthy after %v:\n%s", d.addr, timeout, tail(d.log))
		}
		time.Sleep(time.Millisecond)
	}
}

// tail returns the last few hundred bytes of a daemon log for error
// messages.
func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(data) > 800 {
		data = data[len(data)-800:]
	}
	return string(data)
}

// startSet spawns one daemon per spec concurrently-in-effect (all are
// forked before any is awaited) and returns them with the set-up time:
// first spawn until every daemon answers /healthz. Each must then prove it
// is the process just spawned — its node name matches and it has served
// no job.
func (h *harness) startSet(specs [][]string) ([]*daemon, float64, error) {
	start := time.Now()
	var ds []*daemon
	for _, spec := range specs {
		d, err := h.spawn(spec[0], spec[1:]...)
		if err != nil {
			return nil, 0, err
		}
		ds = append(ds, d)
	}
	for _, d := range ds {
		if err := h.waitHealthy(d, 30*time.Second); err != nil {
			return nil, 0, err
		}
	}
	setup := time.Since(start).Seconds()
	for _, d := range ds {
		m, err := h.scrape(d)
		if err != nil {
			return nil, 0, err
		}
		if m.Node != d.base() || m.Jobs != 0 {
			return nil, 0, fmt.Errorf("daemon on %s is not the one just spawned (node %q, %d jobs served)", d.addr, m.Node, m.Jobs)
		}
	}
	return ds, setup, nil
}

// stopSet SIGTERMs every daemon and waits for clean exits, so stores are
// flushed and closed before the next start reuses their directories.
func (h *harness) stopSet(ds []*daemon) error {
	for _, d := range ds {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-dead process is caught below
	}
	var errs []error
	for _, d := range ds {
		select {
		case <-d.done:
			if !d.cmd.ProcessState.Success() {
				errs = append(errs, fmt.Errorf("jfserved on %s: %v:\n%s", d.addr, d.cmd.ProcessState, tail(d.log)))
			}
		case <-time.After(20 * time.Second):
			errs = append(errs, fmt.Errorf("jfserved on %s ignored SIGTERM for 20s", d.addr))
		}
	}
	return errors.Join(errs...)
}

// killAll is the every-exit-path cleanup: SIGKILL each spawned process
// group and wait until the processes are reaped.
func (h *harness) killAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range h.live {
		select {
		case <-d.done:
			continue
		default:
		}
		_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // group may already be gone
		<-d.done
	}
	h.live = nil
}

// cpuSeconds sums the CPU time the daemons have consumed, user and
// system, all threads.
func cpuSeconds(ds []*daemon) (float64, error) {
	var total int64
	for _, d := range ds {
		ns, err := processCPUNanos(d.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("CPU clock of jfserved on %s: %w", d.addr, err)
		}
		total += ns
	}
	return float64(total) / 1e9, nil
}

// processCPUNanos reads another process's CPU-time clock — what
// clock_getcpuclockid(3) + clock_gettime(2) do in C. It is the scheduler's
// own nanosecond account of utime+stime. /proc/<pid>/stat reports the same
// total in 10 ms ticks, which is too coarse here: a warm lap is ~35 ticks
// of daemon CPU, so the median over laps would read the same value to the
// last digit run after run.
func processCPUNanos(pid int) (int64, error) {
	// The kernel's MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED).
	const cpuclockSched = 2
	clock := uintptr(uint32(^pid<<3 | cpuclockSched))
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, errno
	}
	return ts.Nano(), nil
}

// peakRSSMB sums the daemons' resident-set high-water marks (VmHWM).
func peakRSSMB(ds []*daemon) (float64, error) {
	var kb uint64
	for _, d := range ds {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		v, err := parseVmHWM(string(data))
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// parseVmHWM extracts the VmHWM value in kB from /proc/<pid>/status.
func parseVmHWM(status string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// nodeMetrics is the subset of a daemon's JSON /metrics document the
// harness reads.
type nodeMetrics struct {
	Node  string `json:"node"`
	Jobs  int64  `json:"jobs"`
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Engine struct {
		Runs          uint64 `json:"runs"`
		MeshCycles    uint64 `json:"simulatedMeshCycles"`
		Events        uint64 `json:"events"`
		CyclesSkipped uint64 `json:"cyclesSkipped"`
	} `json:"engine"`
	Store *struct {
		RunHits   int64 `json:"runHits"`
		RunMisses int64 `json:"runMisses"`
	} `json:"store"`
	Dispatch *struct {
		Backends []struct {
			Name string `json:"name"`
			Jobs int64  `json:"jobs"`
		} `json:"backends"`
		Retries        int64 `json:"retries"`
		LocalFallbacks int64 `json:"localFallbacks"`
		Suspensions    int64 `json:"suspensions"`
	} `json:"dispatch"`
	Admission struct {
		Classes []struct {
			Rejected int64 `json:"rejected"`
		} `json:"classes"`
	} `json:"admission"`
}

// scrape fetches one daemon's /metrics.
func (h *harness) scrape(d *daemon) (nodeMetrics, error) {
	var m nodeMetrics
	resp, err := h.client.Get(d.base() + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET %s/metrics: status %d", d.base(), resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decoding %s/metrics: %w", d.base(), err)
	}
	return m, nil
}

// counts is the exact-count view of a daemon set: /metrics counters by
// name, summed over the set's daemons. Laps report the difference of two.
type counts map[string]float64

func (h *harness) scrapeCounts(ds []*daemon) (counts, error) {
	c := counts{}
	for _, d := range ds {
		m, err := h.scrape(d)
		if err != nil {
			return nil, err
		}
		c["engine.runs"] += float64(m.Engine.Runs)
		c["engine.meshCycles"] += float64(m.Engine.MeshCycles)
		c["engine.events"] += float64(m.Engine.Events)
		c["engine.cyclesSkipped"] += float64(m.Engine.CyclesSkipped)
		c["cache.hits"] += float64(m.Cache.Hits)
		c["cache.misses"] += float64(m.Cache.Misses)
		if m.Store != nil {
			c["store.runHits"] += float64(m.Store.RunHits)
			c["store.runMisses"] += float64(m.Store.RunMisses)
		}
		for _, cl := range m.Admission.Classes {
			c["admit.rejected"] += float64(cl.Rejected)
		}
		if m.Dispatch != nil {
			c["dispatch.retries"] += float64(m.Dispatch.Retries)
			c["dispatch.localFallbacks"] += float64(m.Dispatch.LocalFallbacks)
			c["dispatch.suspensions"] += float64(m.Dispatch.Suspensions)
			for i, b := range m.Dispatch.Backends {
				c[fmt.Sprintf("dispatch.backendJobs.%d", i)] += float64(b.Jobs)
			}
		}
	}
	return c, nil
}
