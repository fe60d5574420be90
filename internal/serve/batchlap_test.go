package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// TestBatchLapAllocations gates what a warm summary-only POST /v1/batch
// allocates for the repository benchmark's lap — the first 800 corpus
// methods on every configuration, 4 800 jobs — through the handler, with
// the deployment cache already full. The parent of the streaming fold
// allocated 7.94 MB and about 35 800 objects per lap: one JobResult per
// job, then a copy of every run for the summary.
func TestBatchLapAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const (
		laps      = 3
		maxBytes  = 5_000_000
		maxAllocs = 35_800
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
// allocate the goroutines, the channels and a reorder window, never a
// result per job (the slice-backed fan-out allocated 15.3 MB here). On one
// worker completions arrive in order and the window stays one slot wide.
// On four, the window grows to the spread of completions, which for
// no-op jobs is set by how long the Go scheduler leaves a worker that
// holds the next index waiting (up to one 10 ms time slice, thousands of
// no-op jobs): up to 8.4 MB at -cpu 2 and 4, so it is logged, not gated.
func TestFanOutAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const (
		maxBytes  = 16 << 10
		maxAllocs = 24
	)
	jobs := make([]Job, 50_000)
	measure := func(workers int) (bytes, allocs uint64) {
		emitted := 0
		fanOut := func() {
			FanOut(context.Background(), jobs, workers, func(i int, _ JobResult) {
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
		if emitted != len(jobs) {
			t.Fatalf("emitted %d results for %d jobs", emitted, len(jobs))
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	bytes, allocs := measure(1)
	if bytes > maxBytes || allocs > maxAllocs {
		t.Errorf("%d no-op jobs on one worker: %d bytes in %d allocations, want <= %d bytes in <= %d",
			len(jobs), bytes, allocs, maxBytes, maxAllocs)
	}
	t.Logf("%d no-op jobs, one worker: %d bytes, %d allocations", len(jobs), bytes, allocs)
	bytes, allocs = measure(4)
	t.Logf("%d no-op jobs, four workers: %d bytes, %d allocations", len(jobs), bytes, allocs)
}
