package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"

	"javaflow/internal/classfile"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// TestBatchLapAllocations gates what a warm summary-only POST /v1/batch
// allocates for the repository benchmark's lap — the first 800 corpus
// methods on every configuration, 4 800 jobs — through the handler, with
// the deployment cache already full. The parent of the streaming fold
// allocated 7.94 MB and about 35 800 objects per lap: one JobResult per
// job, then a copy of every run for the summary. Ten runs of the test
// binary each, 0.33 GC cycles per lap throughout, on a 2-vCPU box: with
// the sweep built as a job list first, 3.39–3.64 MB in 29 900–31 500
// allocations idle and 3.50–3.84 MB in 30 000–31 900 beside another
// test binary; with jobs asked for by index, 3.12–3.29 MB in 29 900–31 100
// idle and 3.26–3.61 MB in 30 100–31 800 beside one. With spans recorded
// by value into a ring slot instead of a heap span with an attribute map,
// and no GC cycle in a lap: 0.79–0.88 MB in 15 400–16 000 allocations
// idle, 0.89–1.05 MB in 15 400–15 900 beside one test binary, and
// 0.98–1.33 MB in 15 400–17 800 beside two. Both gates are the loaded
// maxima plus 5 %: the lap grows when a worker is descheduled, as when go
// test runs packages side by side. The reorder window widens, and a
// worker may draw a fresh engine from the pool, whose per-node token
// buffers regrow (≈ 5 300 allocations in sim.(*Engine).holdToken).
func TestBatchLapAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const (
		laps      = 3
		maxBytes  = 1_400_000
		maxAllocs = 18_700
	)
	handler, body := batchLap(t)
	post := func() {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	post() // cold: fills the deployment cache

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < laps; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	bytesPerLap := (after.TotalAlloc - before.TotalAlloc) / laps
	allocsPerLap := (after.Mallocs - before.Mallocs) / laps
	if bytesPerLap > maxBytes {
		t.Errorf("warm summary-only lap: %d bytes allocated, want <= %d", bytesPerLap, maxBytes)
	}
	if allocsPerLap > maxAllocs {
		t.Errorf("warm summary-only lap: %d allocations, want <= %d", allocsPerLap, maxAllocs)
	}
	t.Logf("warm summary-only lap: %d bytes, %d allocations, %.2f GC cycles", bytesPerLap, allocsPerLap,
		float64(after.NumGC-before.NumGC)/laps)
}

// fixedRunner is a BatchRunner that executes nothing: every job gets run.
type fixedRunner struct{ run sim.MethodRun }

func (f fixedRunner) RunMethodCycles(context.Context, sim.Config, *classfile.Method, int) (sim.MethodRun, error) {
	return f.run, nil
}

func (f fixedRunner) RunBatchStream(_ context.Context, n int, job func(int) Job, _ int, emit func(int, JobResult)) {
	for i := 0; i < n; i++ {
		emit(i, JobResult{Job: job(i), Run: f.run})
	}
}

// TestBatchSweepHoldsNoJobList gates what the service itself allocates for
// a summary-only sweep of every configuration × 800 methods, over a runner
// that executes nothing: the fold, never a job list. Building the 4 800
// jobs before the runner is called takes 268 800 bytes on its own; with
// the same runner, the service allocated 327 000–328 000 bytes per sweep
// while it did, and 57 000–58 000 since the runner asks for jobs by index.
// Under -race the sweeps run but the gate is off: the race detector
// allocates on its own.
func TestBatchSweepHoldsNoJobList(t *testing.T) {
	const (
		sweeps   = 5
		maxBytes = 268_800
	)
	methods := make([]*classfile.Method, 800)
	for i := range methods {
		methods[i] = &classfile.Method{Class: "Sweep", Name: strconv.Itoa(i)}
	}
	svc := NewService(NewScheduler(SchedulerOptions{Workers: 1}), sim.Configurations(), methods)
	svc.SetBatchRunner(fixedRunner{run: sim.MethodRun{
		BP1: sim.Result{Fired: 100, MeshCycles: 40},
		BP2: sim.Result{Fired: 100, MeshCycles: 50},
	}})
	sweep := func() {
		resp, err := svc.Batch(context.Background(), BatchRequest{SummaryOnly: true})
		if err != nil || len(resp.Results) != len(sim.Configurations()) || resp.Results[0].Summary.Methods != len(methods) {
			t.Fatalf("sweep: %v, %+v", err, resp.Results)
		}
	}
	sweep()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < sweeps; i++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	bytesPerSweep := (after.TotalAlloc - before.TotalAlloc) / sweeps
	if bytesPerSweep >= maxBytes && !raceEnabled {
		t.Errorf("summary-only sweep of %d jobs: %d bytes allocated, want < %d",
			len(methods)*len(sim.Configurations()), bytesPerSweep, maxBytes)
	}
	t.Logf("summary-only sweep: %d bytes", bytesPerSweep)
}

// batchLap builds a memory-only handler over the serving corpus and the
// summary-only POST /v1/batch body of the repository benchmark's lap.
func batchLap(t testing.TB) (http.Handler, []byte) {
	t.Helper()
	methods := workload.Corpus(2014, 1580)
	sched := NewScheduler(SchedulerOptions{Workers: 2, MaxMeshCycles: 400_000})
	req := BatchRequest{SummaryOnly: true}
	for _, m := range methods[:800] {
		req.Methods = append(req.Methods, m.Signature())
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return NewHandler(NewService(sched, sim.Configurations(), methods)), body
}

// TestFanOutAllocations gates the fan-out's own cost: 50 000 no-op jobs
// allocate the goroutines, the lock and a reorder window, never a result
// per job (the slice-backed fan-out allocated 15.3 MB here). On one worker
// completions arrive in order and the window stays one slot wide. On four,
// the window grows to the spread of completions, which for no-op jobs is
// set by how long the Go scheduler leaves a worker that holds the next
// index waiting (up to one 10 ms time slice, thousands of no-op jobs): 1.1
// to 8.4 MB at -cpu 2 and 4, as with the channel fan-out before it, so it
// is logged, not gated.
func TestFanOutAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const (
		jobs      = 50_000
		maxBytes  = 16 << 10
		maxAllocs = 24
	)
	measure := func(workers int) (bytes, allocs uint64) {
		emitted := 0
		fanOut := func() {
			FanOut(context.Background(), jobs, func(int) Job { return Job{} }, workers, func(i int, _ JobResult) {
				if i != emitted {
					t.Fatalf("emitted %d after %d results", i, emitted)
				}
				emitted++
			}, func(Job) (sim.MethodRun, error) { return sim.MethodRun{}, nil })
		}
		fanOut() // warm-up: the first goroutines of a process cost more
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		emitted = 0
		fanOut()
		runtime.ReadMemStats(&after)
		if emitted != jobs {
			t.Fatalf("emitted %d results for %d jobs", emitted, jobs)
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	bytes, allocs := measure(1)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("%d no-op jobs on one worker: %d bytes in %d allocations, want <= %d bytes in <= %d",
			jobs, bytes, allocs, maxBytes, maxAllocs)
	}
	t.Logf("%d no-op jobs, one worker: %d bytes, %d allocations", jobs, bytes, allocs)
	bytes, allocs = measure(4)
	t.Logf("%d no-op jobs, four workers: %d bytes, %d allocations", jobs, bytes, allocs)
}
