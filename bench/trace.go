//go:build linux

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/classfile"
	"javaflow/internal/dispatch"
	"javaflow/internal/fabric"
	"javaflow/internal/obs"
	"javaflow/internal/replicate"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
)

// maxMeshCycles is jfserved's -maxcycles default, the bound the daemons in
// this benchmark run under; the replay must use the same one for its
// store keys and engine runs to match theirs.
const maxMeshCycles = 400_000

// span is one recorded call into a layer. Job ties the spans of one
// request together; Parent is the ID of the span that would have caused
// this one inside the program (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing and only runs the call — the tracing-off control that
// trace.overhead_share is measured against.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// call runs fn inside a span and returns the span's ID.
func (r *recorder) call(name string, job, parent int, fn func()) int {
	if r == nil {
		fn()
		return 0
	}
	start := time.Since(r.epoch)
	fn()
	end := time.Since(r.epoch)
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: int64(start), End: int64(end)})
	return id
}

// selfTimes returns, per span name, every span's duration minus the
// durations of its direct children — the time spent in that layer itself.
// Replayed boundaries do not nest in wall-clock time (each is its own
// call), so children are subtracted by duration, not by interval overlap.
func selfTimes(spans []span) map[string][]float64 {
	children := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur()-children[s.ID]))
	}
	return out
}

// durations returns every span's full duration by name.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur()))
	}
	return out
}

// stack is an in-process jfserved: the same wiring cmd/jfserved does,
// minus the listener.
type stack struct {
	st      *store.Store
	sched   *serve.Scheduler
	svc     *serve.Service
	handler http.Handler
}

// newStack builds a fresh service over st, which it then owns; a nil
// store makes it memory-only.
func newStack(st *store.Store, methods []*classfile.Method, configs []sim.Config) *stack {
	s := &stack{st: st}
	metrics := serve.NewMetrics()
	s.sched = serve.NewScheduler(serve.SchedulerOptions{
		Cache:         serve.NewDeploymentCache(0),
		MaxMeshCycles: maxMeshCycles,
		Store:         s.st,
		Metrics:       metrics,
	})
	s.svc = serve.NewService(s.sched, configs, methods)
	s.svc.SetAdmission(admit.New(admit.Options{
		Parallelism: s.sched.Workers(),
		Registry:    metrics.Registry(),
		Journal:     metrics.Journal(),
	}))
	s.handler = serve.NewHandler(s.svc)
	return s
}

func (s *stack) close() error {
	if s.st == nil {
		return nil
	}
	return s.st.Close()
}

// memDelta runs fn and returns the heap objects and bytes it allocated.
// The replay is single-goroutine, so the process-wide counters are fn's.
func memDelta(fn func()) (mallocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// perOp times n calls of fn as one block and returns ns per call — for
// operations too short to wrap in a span each.
func perOp(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

const microLoops = 200_000

// replay is the traced run: one goroutine replays the first jobs of the
// seeded order through the stack one public boundary at a time, outermost
// first — HTTP handler, Service, Scheduler, then the deploy pipeline, the
// engine, the codec and the store called directly — with a span around
// every call. Every boundary gets its own fresh service and empty store
// and sees every job once, in order, so each has the cold-to-warm cache
// history the daemon's single stack would. (Replaying a job through all
// boundaries back to back was tried and rejected: the outermost call then
// also pays for cold CPU caches and reads ~100 us too high.) It returns
// the per-layer metrics and the spans.
//
// Job cost is heavy-tailed (the median engine run is a quarter of the
// mean), so span-derived numbers are means over the replayed jobs: means
// add up to the per-job budget and to 1/throughput, medians do not.
func (h *harness) replay() (map[string]float64, []span, error) {
	jl, err := buildJobs(h.methods, h.configs, h.opts.seed, max(1, h.opts.traceJobs/len(h.configs)))
	if err != nil {
		return nil, nil, err
	}
	jobs := jl.jobs
	n := len(jobs)
	ctx := context.Background()
	rec := newRecorder()
	m := map[string]float64{}
	request := func(j job) *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(j.body))
	}

	// Five empty stores: one under each of the root (HTTP), Service and
	// Scheduler boundaries, two for the store calls made directly.
	var stores [5]*store.Store
	for i := range stores {
		if stores[i], err = h.emptyStore(); err != nil {
			return nil, nil, err
		}
		defer stores[i].Close() // a second Close is a no-op
	}
	root := newStack(stores[0], h.methods, h.configs)
	svc := newStack(stores[1], h.methods, h.configs)
	sched := newStack(stores[2], h.methods, h.configs)
	runStore, deployStore := stores[3], stores[4]

	// The passes: boundaries 0-2, then the leaves called directly. A
	// scheduler call whose deployment the cache already held pays no deploy
	// pipeline, and one whose result the store already held (another
	// configuration with the same geometry and clocking) pays neither
	// engine nor store append — the leaf spans become its children only
	// where that work happened.
	rootID, svcID, schedID := make([]int, n), make([]int, n), make([]int, n)
	deployParent, engineParent := make([]int, n), make([]int, n)
	resolutions := make([]*fabric.Resolution, n)
	runs := make([]sim.MethodRun, n)
	keys := make([]store.RunKey, n)
	runner := &sim.Runner{MaxMeshCycles: maxMeshCycles}
	var respBytes, engineMallocs, engineBytes, events float64
	var ok []int // jobs the fabric accepted
	var failed error
	passes := []func(i int, j job){
		func(i int, j job) {
			w, req := httptest.NewRecorder(), request(j)
			rootID[i] = rec.call("serve.http", i, 0, func() { root.handler.ServeHTTP(w, req) })
			respBytes += float64(w.Body.Len())
		},
		func(i int, j job) {
			svcID[i] = rec.call("serve.service", i, rootID[i], func() {
				_, _ = svc.svc.RunLocal(ctx, j.cfg.Name, j.method.Signature(), 0) // a rejection is a result here
			})
		},
		func(i int, j job) {
			misses, engineRuns := sched.sched.Cache().Stats().Misses, sim.TotalEngineStats().Runs
			schedID[i] = rec.call("serve.scheduler", i, svcID[i], func() {
				_, _ = sched.sched.RunMethodCycles(ctx, j.cfg, j.method, 0)
			})
			if sched.sched.Cache().Stats().Misses > misses {
				deployParent[i] = schedID[i]
			}
			if sim.TotalEngineStats().Runs > engineRuns {
				engineParent[i] = schedID[i]
			}
		},
		func(i int, j job) {
			var placement *fabric.Placement
			var lerr error
			rec.call("fabric.load", i, deployParent[i], func() {
				placement, lerr = (&fabric.Loader{Fabric: j.cfg.Fabric}).Load(j.method)
			})
			if lerr == nil {
				rec.call("fabric.resolve", i, deployParent[i], func() { resolutions[i], lerr = fabric.Resolve(placement) })
			}
			var le *fabric.LoadError
			if lerr != nil && !errors.As(lerr, &le) {
				failed = fmt.Errorf("replay: deploying %s: %w", j.method.Signature(), lerr)
			}
			// What the deployment cache does around a miss: build the
			// content key (it hashes the method body), read through, write
			// behind.
			rec.call("store.deploy_io", i, deployParent[i], func() {
				key := store.DeployKeyFor(j.cfg, j.method)
				_, _, _ = deployStore.GetDeploy(key, j.cfg.Fabric, j.method) // a miss on first sight of the key
				deployStore.PutDeploy(key, resolutions[i], lerr)
			})
		},
		func(i int, j job) {
			if resolutions[i] == nil {
				return // fabric-rejected: no engine run, nothing to store
			}
			ok = append(ok, i)
			events0 := sim.TotalEngineStats().Events
			mallocs, allocated := memDelta(func() {
				rec.call("sim.engine", i, engineParent[i], func() {
					var rerr error
					if runs[i], rerr = runner.RunResolved(j.cfg, resolutions[i]); rerr != nil {
						failed = fmt.Errorf("replay: running %s: %w", j.method.Signature(), rerr)
					}
				})
			})
			engineMallocs += mallocs
			engineBytes += allocated
			events += float64(sim.TotalEngineStats().Events - events0)
		},
		// Every scheduler call builds the run key and reads the store
		// first; only those that then ran the engine append.
		func(i int, j job) {
			rec.call("store.lookup", i, schedID[i], func() {
				keys[i] = store.RunKeyFor(j.cfg, j.method, maxMeshCycles)
				_, _ = runStore.GetRun(keys[i])
			})
			if resolutions[i] != nil {
				rec.call("store.put", i, engineParent[i], func() { runStore.PutRun(keys[i], runs[i]) })
			}
		},
	}
	// One full pass per boundary. (Alternating the passes block by block,
	// to spread a slow minute over all of them, was tried: the garbage of
	// one boundary then lands in the next one's spans and the self times
	// got noisier, not steadier.)
	for _, pass := range passes {
		for i, j := range jobs {
			pass(i, j)
		}
	}
	if failed != nil {
		return nil, nil, failed
	}
	var flushErr error
	flushRun := rec.call("store.flush", -1, 0, func() { flushErr = runStore.Flush() })
	flushDeploy := rec.call("store.flush", -1, 0, func() { flushErr = errors.Join(flushErr, deployStore.Flush()) })
	if flushErr != nil {
		return nil, nil, fmt.Errorf("replay: flushing the stores: %w", flushErr)
	}

	// Operations too short for a span each: one timed block per kind.
	encoded := make([][]byte, n)
	var codecBytes float64
	m["sim.codec_encode_ns"] = perOp(len(ok), func(k int) {
		encoded[ok[k]], _ = runs[ok[k]].MarshalBinary() // cannot fail for a completed run
		codecBytes += float64(len(encoded[ok[k]]))
	})
	m["sim.codec_decode_ns"] = perOp(len(ok), func(k int) {
		var run sim.MethodRun
		if derr := run.UnmarshalBinary(encoded[ok[k]]); derr != nil {
			err = derr
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("replay: codec round trip: %w", err)
	}
	m["store.get_us"] = perOp(len(ok), func(k int) {
		if _, hit := runStore.GetRun(keys[ok[k]]); !hit {
			err = fmt.Errorf("replay: the store lost %s", jobs[ok[k]].method.Signature())
		}
	}) / 1e3
	if err != nil {
		return nil, nil, err
	}
	m["serve.cache_hit_ns"] = perOp(n, func(i int) {
		_, _ = sched.sched.Cache().ResolveMethod(jobs[i].cfg, jobs[i].method)
	})

	// Warm root: the same requests again, now store hits — once traced,
	// once with tracing off to count the handler's own allocations.
	warmPass := func(r *recorder) {
		for i, j := range jobs {
			w, req := httptest.NewRecorder(), request(j)
			r.call("serve.http_warm", i, 0, func() { root.handler.ServeHTTP(w, req) })
		}
	}
	warmPass(rec)
	httpMallocs, _ := memDelta(func() { warmPass(nil) })
	m["serve.http_allocs_per_req"] = httpMallocs / float64(n)
	// Tracing overhead: the cost of one span against the shortest
	// boundary it wraps. A traced-minus-untraced difference of two passes
	// is noise three orders of magnitude above it.
	scratch := newRecorder()
	spanNS := perOp(microLoops, func(int) { scratch.call("x", 0, 0, func() {}) })

	// Real loopback round trip against the warm root, and the dispatch
	// hop: a front dispatching each job to that same server.
	srv := httptest.NewServer(root.handler)
	defer srv.Close()
	client := srv.Client()
	for i, j := range jobs {
		var lerr error
		rec.call("serve.loopback", i, 0, func() {
			resp, err := client.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(j.body))
			if err != nil {
				lerr = err
				return
			}
			_, lerr = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		})
		if lerr != nil {
			return nil, nil, fmt.Errorf("replay: loopback request: %w", lerr)
		}
	}
	// The dispatcher (and the replicator below) start no goroutines; what
	// they hold open is connections, so they get the test server's client,
	// whose connections srv.Close closes.
	front := newStack(nil, h.methods, h.configs)
	disp, err := dispatch.New(dispatch.Options{Peers: []string{srv.URL}, Local: front.sched, Client: client})
	if err != nil {
		return nil, nil, err
	}
	for i, j := range jobs {
		rec.call("dispatch.run", i, 0, func() {
			_ = disp.RunBatchCycles(ctx, []serve.Job{{Config: j.cfg, Method: j.method}}, 0)
		})
	}
	if st := disp.Stats(); st.LocalFallbacks != 0 || st.Retries != 0 {
		return nil, nil, fmt.Errorf("replay: dispatch fell back (%d) or retried (%d) against a live loopback peer", st.LocalFallbacks, st.Retries)
	}

	// Store recovery and the replication pull, on the root's filled store.
	if err := root.close(); err != nil {
		return nil, nil, fmt.Errorf("replay: closing the filled store: %w", err)
	}
	var reopened *store.Store
	openID := rec.call("store.open", -1, 0, func() { reopened, err = store.Open(stores[0].Dir(), store.Options{}) })
	if err != nil {
		return nil, nil, err
	}
	filled := newStack(reopened, h.methods, h.configs)
	defer filled.close()
	admin := filled.st.Admin()
	var manifest []store.SegmentInfo
	manifestID := rec.call("replicate.manifest", -1, 0, func() { manifest, err = filled.st.Manifest() })
	if err != nil {
		return nil, nil, err
	}
	var segments [][]byte
	var segBytes float64
	for _, seg := range manifest {
		data, _, err := filled.st.ReadSegmentAt(seg.Seq, 0)
		if err != nil {
			return nil, nil, err
		}
		segments = append(segments, data)
		segBytes += float64(len(data))
	}
	ingestInto, err := h.emptyStore()
	if err != nil {
		return nil, nil, err
	}
	defer ingestInto.Close()
	ingestID := rec.call("store.ingest", -1, 0, func() {
		for _, data := range segments {
			if _, ierr := ingestInto.Ingest(data); ierr != nil {
				err = ierr
			}
		}
		err = errors.Join(err, ingestInto.Flush())
	})
	if err != nil {
		return nil, nil, fmt.Errorf("replay: ingest: %w", err)
	}
	peer := httptest.NewServer(filled.handler)
	defer peer.Close()
	pullInto, err := h.emptyStore()
	if err != nil {
		return nil, nil, err
	}
	defer pullInto.Close()
	repl, err := replicate.New(replicate.Options{Store: pullInto, Peers: []string{peer.URL}, Client: peer.Client()})
	if err != nil {
		return nil, nil, err
	}
	syncID := rec.call("replicate.sync", -1, 0, func() { err = repl.SyncNow(ctx) })
	if err != nil {
		return nil, nil, fmt.Errorf("replay: replication pull: %w", err)
	}
	payload := admin.Records - admin.MetaRecords
	if pullInto.Len() < payload {
		return nil, nil, fmt.Errorf("replay: pulled %d of %d records", pullInto.Len(), payload)
	}

	// Request-path micro costs: admission, one job span, one labelled
	// histogram record.
	ac := admit.New(admit.Options{})
	m["admit.admit_ns"] = perOp(microLoops, func(int) {
		if release, err := ac.Admit(admit.ClassRun); err == nil {
			release()
		}
	})
	tracer := obs.NewTracer(0)
	var obsSpanNS, histNS float64
	spanMallocs, _ := memDelta(func() {
		obsSpanNS = perOp(microLoops, func(int) {
			_, sp := tracer.StartSpan(ctx, "job.run")
			sp.SetAttr("config", "Baseline")
			sp.SetAttr("method", "scimark/fft/FFT.bitreverse/1")
			sp.SetAttr("outcome", "warm")
			sp.End(nil)
		})
	})
	metrics := serve.NewMetrics()
	histMallocs, _ := memDelta(func() {
		histNS = perOp(microLoops, func(int) { metrics.RecordHTTP("POST /v1/run", 300*time.Microsecond) })
	})
	m["obs.span_ns"], m["obs.span_allocs"] = obsSpanNS, spanMallocs/microLoops
	m["obs.histvec_record_ns"], m["obs.histvec_allocs"] = histNS, histMallocs/microLoops

	// Fold the spans into per-layer numbers.
	durOf := func(id int) float64 { return float64(rec.spans[id-1].dur()) }
	self, dur := selfTimes(rec.spans), durations(rec.spans)
	usPer := func(totalNS, count float64) float64 { return totalNS / count / 1e3 }
	jobsN, runsN := float64(n), float64(len(ok))
	m["fabric.load_us"] = usPer(sum(dur["fabric.load"]), jobsN)
	m["fabric.resolve_us"] = usPer(sum(dur["fabric.resolve"]), float64(len(dur["fabric.resolve"])))
	m["sim.engine_us_per_job"] = usPer(sum(dur["sim.engine"]), runsN)
	m["sim.engine_allocs_per_job"] = engineMallocs / runsN
	m["sim.engine_bytes_per_job"] = engineBytes / runsN
	m["sim.ns_per_event"] = sum(dur["sim.engine"]) / events
	m["sim.codec_bytes_per_run"] = codecBytes / runsN
	m["store.put_us"] = usPer(sum(dur["store.put"])+durOf(flushRun), runsN)
	m["store.deploy_io_us"] = usPer(sum(dur["store.deploy_io"])+durOf(flushDeploy), jobsN)
	m["store.lookup_us"] = usPer(sum(dur["store.lookup"]), jobsN)
	m["store.disk_bytes_per_record"] = float64(admin.DiskBytes) / float64(admin.Records)
	m["serve.http_self_us"] = usPer(sum(self["serve.http"]), jobsN)
	m["serve.service_self_us"] = usPer(sum(self["serve.service"]), jobsN)
	m["serve.scheduler_self_us"] = usPer(sum(self["serve.scheduler"]), jobsN)
	m["serve.response_bytes_per_job"] = respBytes / jobsN
	warmUS := usPer(sum(dur["serve.http_warm"]), jobsN)
	m["serve.http_warm_us"] = warmUS
	m["trace.overhead_share"] = spanNS / (warmUS * 1e3)
	m["serve.loopback_rtt_us"] = usPer(sum(dur["serve.loopback"]), jobsN) - warmUS
	m["dispatch.hop_us"] = usPer(sum(dur["dispatch.run"]), jobsN) - warmUS
	m["store.open_ms"] = durOf(openID) / 1e6
	m["replicate.manifest_ms"] = durOf(manifestID) / 1e6
	m["store.ingest_mb_per_s"] = segBytes / (1 << 20) / (durOf(ingestID) / 1e9)
	m["replicate.sync_records_per_s"] = float64(payload) / (durOf(syncID) / 1e9)
	// Coverage: the share of the root boundary's time the replay pins on
	// a directly measured call or on the HTTP/Service wrappers —
	// everything except the scheduler's own remainder (its span, its
	// counters, the deployment-cache lookup).
	m["trace.coverage"] = 1 - sum(self["serve.scheduler"])/sum(dur["serve.http"])
	return m, rec.spans, nil
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// emptyStore opens a store on a fresh directory.
func (h *harness) emptyStore() (*store.Store, error) {
	dir, err := h.mkdir("trace-store")
	if err != nil {
		return nil, err
	}
	return store.Open(dir, store.Options{})
}

// tablesAll times one fresh `jfbench -all` — the legacy table sweep — and
// returns the wall seconds and the SHA-256 of its stdout.
func (h *harness) tablesAll() (float64, string, error) {
	cmd := exec.Command(filepath.Join(h.bin, "jfbench"), "-all",
		"-gen", strconv.Itoa(h.opts.gen), "-seed", strconv.Itoa(corpusSeed))
	cmd.Dir = h.tmp
	start := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return 0, "", fmt.Errorf("jfbench -all: %w", err)
	}
	sum := sha256.Sum256(out)
	return time.Since(start).Seconds(), hex.EncodeToString(sum[:]), nil
}
