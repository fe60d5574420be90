//go:build linux

package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"javaflow/internal/classfile"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// options are the harness knobs: the first three come from the command
// line, the sizes are the constants of main.go except in TestSmoke.
type options struct {
	seed        int64
	seconds     float64
	trace       bool
	gen         int
	lapMethods  int
	traceJobs   int
	minLaps     int
	setupStarts int
}

// concurrency is the closed-loop client count of the /v1/run workloads:
// two callers, each sending its next request when the previous reply has
// arrived, over two keep-alive connections — enough that the daemon always
// has a request waiting while the other reply is read (README, "Why closed
// loop").
const concurrency = 2

// refSamples is how many jobs of the lap the in-process reference replays
// for the correctness gate.
const refSamples = 128

// harness owns everything one benchmark run creates: the temp dir, the
// daemons, the HTTP client and the seed-derived job list.
type harness struct {
	opts options
	spec spec
	site
	tmp     string
	client  *http.Client
	methods []*classfile.Method
	configs []sim.Config
	jl      *jobList
	// ref holds the in-process reference response of every sampled job
	// index; batchRef the reference of the lap's /v1/batch request.
	ref      map[int]response
	batchRef response
	corpusMS float64

	mu      sync.Mutex // guards live: the signal watcher may clean up mid-run
	live    []*daemon
	spawned int
}

// findRoot locates the repository root from the working directory: `go run
// -C bench .` starts the harness inside bench/, `go test` likewise.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "jfserved", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot find the javaflow repository root from %s (no cmd/jfserved)", wd)
}

// site is where a run happens: the checkout, the built binaries, the
// output directory, and the machine — everything runs of one invocation
// share.
type site struct {
	root   string // repository root (holds cmd/ and internal/)
	bin    string // directory of the built jfserved and jfbench
	outDir string // bench/out
	env    envInfo
	plan   cpuPlan // where generator and daemons run; zero when not pinned
}

// buildDir is where binaries and per-run temp dirs live, inside the
// checkout and named in .gitignore.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// prepare locates the checkout, compiles cmd/jfserved and cmd/jfbench from
// source into .bench_build/bin (the Go build cache makes a second call a
// relink) and creates bench/out.
func prepare() (site, error) {
	root, err := findRoot()
	if err != nil {
		return site{}, err
	}
	at := site{root: root, bin: filepath.Join(buildDir(root), "bin"), outDir: filepath.Join(root, "bench", "out")}
	for _, dir := range []string{at.bin, at.outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return site{}, err
		}
	}
	cmd := exec.Command("go", "build", "-o", at.bin+string(filepath.Separator), "./cmd/jfserved", "./cmd/jfbench")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return site{}, fmt.Errorf("building jfserved/jfbench: %w\n%s", err, out)
	}
	// A cold build leaves ~150 MB of dirty pages behind; written back under
	// the first laps they tripled run-cold's store-append time. Flush them
	// now (instant when the build was a relink).
	syscall.Sync()
	at.env = envInfo{
		Commit:     commandOutput(root, "git", "rev-parse", "HEAD"),
		GoVersion:  commandOutput(root, "go", "version"),
		NumCPU:     commandOutput(root, "nproc", "--all"), // runtime.NumCPU reads 1 once pinned
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUPlan:    os.Getenv(pinnedEnv),
		Kernel:     commandOutput(root, "uname", "-sr"),
	}
	return at, nil
}

// newHarness prepares one run: temp dir, corpus, job list and the
// in-process reference responses.
func newHarness(opts options, s spec, at site) (*harness, error) {
	tmp, err := os.MkdirTemp(buildDir(at.root), "run-")
	if err != nil {
		return nil, err
	}
	h := &harness{
		opts: opts, spec: s, site: at, tmp: tmp,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: concurrency,
			MaxConnsPerHost:     concurrency,
			DisableCompression:  true,
		}},
		configs: sim.Configurations(),
	}
	start := time.Now()
	h.methods = workload.Corpus(corpusSeed, opts.gen)
	h.corpusMS = float64(time.Since(start)) / float64(time.Millisecond)
	if h.jl, err = buildJobs(h.methods, h.configs, opts.seed, opts.lapMethods); err != nil {
		h.close()
		return nil, err
	}
	if err := h.reference(); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

// close kills whatever is still running and removes the temp dir; safe on
// every exit path and more than once.
func (h *harness) close() {
	h.killAll()
	h.client.CloseIdleConnections()
	_ = os.RemoveAll(h.tmp) // best effort: a leftover is under .bench_build, which is ignored
}

// mkdir creates a fresh directory under the run's temp dir.
func (h *harness) mkdir(prefix string) (string, error) {
	return os.MkdirTemp(h.tmp, prefix+"-")
}

// reference computes, in this process and on a memory-only service with
// no store, no dispatch and cold caches, the responses the daemons must
// reproduce byte for byte: a strided sample of the lap's /v1/run jobs and
// the lap's whole /v1/batch request.
func (h *harness) reference() error {
	st := newStack(nil, h.methods, h.configs)
	h.ref = make(map[int]response, refSamples)
	stride := max(1, len(h.jl.jobs)/refSamples)
	for i := 0; i < len(h.jl.jobs); i += stride {
		j := h.jl.jobs[i]
		h.ref[j.index] = serveInProcess(st.handler, "/v1/run", j.body)
	}
	if h.spec.batch {
		h.batchRef = serveInProcess(st.handler, "/v1/batch", h.jl.batch)
	}
	return nil
}

// serveInProcess drives one POST through a handler without a network.
func serveInProcess(handler http.Handler, path string, body []byte) response {
	w := httptest.NewRecorder()
	handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return response{status: w.Code, sum: sha256.Sum256(w.Body.Bytes())}
}

// post sends one request and reduces the reply to status + body hash. A
// transport failure is a response with status 0.
func (h *harness) post(url string, body []byte) response {
	resp, err := h.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return response{}
	}
	defer resp.Body.Close()
	hash := sha256.New()
	if _, err := io.Copy(hash, resp.Body); err != nil {
		return response{}
	}
	r := response{status: resp.StatusCode}
	hash.Sum(r.sum[:0])
	return r
}

// lap is one timed pass over the job list.
type lap struct {
	WallS      float64 `json:"wall_s"`
	P50MS      float64 `json:"latency_p50_ms"`
	P99MS      float64 `json:"latency_p99_ms"`
	DaemonCPUS float64 `json:"daemon_cpu_s"`
	Rejected   int     `json:"rejected_422"`
	Failed     int     `json:"failed"`
	Digest     string  `json:"digest"`
}

// runLap drives one pass against base and measures it: wall time, client
// latencies, the daemons' CPU time, and the response digest. With batch
// set the pass is one POST /v1/batch; otherwise every job is its own POST
// /v1/run from `concurrency` closed-loop clients.
func (h *harness) runLap(base string, ds []*daemon, batch bool) (lap, error) {
	cpu0, err := cpuSeconds(ds)
	if err != nil {
		return lap{}, err
	}
	var (
		rs  []response
		lat []float64 // ms
	)
	start := time.Now()
	if batch {
		rs = []response{h.post(base+"/v1/batch", h.jl.batch)}
		lat = []float64{float64(time.Since(start)) / float64(time.Millisecond)}
	} else {
		rs, lat = h.driveRuns(base + "/v1/run")
	}
	wall := time.Since(start)
	cpu1, err := cpuSeconds(ds)
	if err != nil {
		return lap{}, err
	}
	l := lap{
		WallS:      wall.Seconds(),
		P50MS:      median(lat),
		P99MS:      percentile(lat, 99),
		DaemonCPUS: cpu1 - cpu0,
		Digest:     lapDigest(rs),
	}
	for i, r := range rs {
		switch {
		case r.status == http.StatusOK:
		case r.status == http.StatusUnprocessableEntity && !batch:
			// A fabric rejection is a deterministic result, not a failure.
			l.Rejected++
		default:
			l.Failed++
			continue
		}
		want, sampled := h.ref[i]
		if batch {
			want, sampled = h.batchRef, true
		}
		if sampled && r != want {
			return l, fmt.Errorf("job %d: response (status %d) differs from the in-process reference (status %d)", i, r.status, want.status)
		}
	}
	if l.Failed > 0 {
		return l, fmt.Errorf("%d of %d operations failed (transport error, 429 or 5xx)", l.Failed, len(rs))
	}
	return l, nil
}

// driveRuns sends every job of the lap once, from `concurrency` clients
// that each take the next unsent job when their previous reply arrived.
func (h *harness) driveRuns(url string) ([]response, []float64) {
	jobs := h.jl.jobs
	rs := make([]response, len(jobs))
	lat := make([]float64, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				t := time.Now()
				rs[jobs[i].index] = h.post(url, jobs[i].body)
				lat[i] = float64(time.Since(t)) / float64(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	return rs, lat
}

// selfCPUSeconds is the generator's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// envInfo records where a run was measured.
type envInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     string `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUPlan    string `json:"cpu_plan"` // <generator CPU>:<daemon CPUs>
	Kernel     string `json:"kernel"`
}

// commandOutput runs a command for envInfo; failures yield "unknown" (a
// benchmark checkout need not be a git repository).
func commandOutput(dir, name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
