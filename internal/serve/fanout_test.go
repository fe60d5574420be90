package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"javaflow/internal/sim"
	"javaflow/internal/store"
)

// TestFanOutSingleJobInline: a batch of one runs on the caller's goroutine
// with the pool's contract intact — an already-cancelled context reports
// ctx.Err() without running, and emit fires exactly once, with index 0.
func TestFanOutSingleJobInline(t *testing.T) {
	job := []Job{{Config: testConfig(t, "Compact2"), Method: hostableMethods(t, 1)[0]}}
	want := sim.MethodRun{Signature: "inline"}
	ran := 0
	var emitted []int
	run := func(Job) (sim.MethodRun, error) { ran++; return want, nil } // unsynchronised: must stay on this goroutine
	emit := func(i int, r JobResult) { emitted = append(emitted, i) }

	results := FanOut(context.Background(), job, 4, emit, run)
	if ran != 1 || len(results) != 1 || results[0].Err != nil || results[0].Run != want || results[0].Job != job[0] {
		t.Fatalf("ran %d times, results %+v", ran, results)
	}
	if !reflect.DeepEqual(emitted, []int{0}) {
		t.Fatalf("emitted %v, want exactly [0]", emitted)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran, emitted = 0, nil
	results = FanOut(ctx, job, 4, emit, run)
	if ran != 0 || !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("cancelled: ran %d times, err %v; want no run and context.Canceled", ran, results[0].Err)
	}
	if !reflect.DeepEqual(emitted, []int{0}) {
		t.Fatalf("cancelled: emitted %v, want exactly [0]", emitted)
	}
	if got := FanOut(ctx, nil, 4, emit, run); len(got) != 0 || len(emitted) != 1 {
		t.Fatalf("empty batch: %d results, %d emits", len(got), len(emitted)-1)
	}
}

// TestSchedulerSingleJobMatchesPool: the inline single-job path and the
// pooled path produce the same result for the same job.
func TestSchedulerSingleJobMatchesPool(t *testing.T) {
	job := Job{Config: testConfig(t, "Hetero2"), Method: hostableMethods(t, 1)[0]}
	sched := NewScheduler(SchedulerOptions{Workers: 4, MaxMeshCycles: testMaxCycles})
	var emitted []int
	single := sched.RunBatchStream(context.Background(), []Job{job}, 0, func(i int, r JobResult) { emitted = append(emitted, i) })
	pooled := sched.RunBatchStream(context.Background(), []Job{job, job}, 0, nil)
	if single[0].Err != nil || !reflect.DeepEqual(single[0], pooled[0]) || !reflect.DeepEqual(single[0], pooled[1]) {
		t.Fatalf("single %+v differs from pooled %+v", single[0], pooled)
	}
	if !reflect.DeepEqual(emitted, []int{0}) {
		t.Fatalf("emitted %v, want exactly [0]", emitted)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := sched.Snapshot().Jobs
	if r := sched.RunBatchStream(ctx, []Job{job}, 0, nil); !errors.Is(r[0].Err, context.Canceled) {
		t.Fatalf("cancelled: err %v, want context.Canceled", r[0].Err)
	}
	if got := sched.Snapshot().Jobs; got != jobs {
		t.Fatalf("cancelled job was started (%d -> %d jobs)", jobs, got)
	}
}

// TestSingleJobsDuringBatch runs inline single-job calls from eight
// goroutines while a 500-job batch occupies the pool (run it under -race):
// the two paths share the cache, metrics and engine pool.
func TestSingleJobsDuringBatch(t *testing.T) {
	methods := hostableMethods(t, 5)
	cfg := testConfig(t, "Compact2")
	sched := NewScheduler(SchedulerOptions{Workers: 4, MaxMeshCycles: testMaxCycles})
	batch := make([]Job, 500)
	for i := range batch {
		batch[i] = Job{Config: cfg, Method: methods[i%len(methods)]}
	}
	want := sched.RunBatchCycles(context.Background(), batch[:len(methods)], 0)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, r := range sched.RunBatchCycles(context.Background(), batch, 0) {
			if r.Err != nil || r.Run != want[i%len(methods)].Run {
				t.Errorf("batch job %d: %+v (err %v)", i, r.Run, r.Err)
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(methods)
				r := sched.RunBatchCycles(context.Background(), batch[i:i+1], 0)
				if r[0].Err != nil || r[0].Run != want[i].Run {
					t.Errorf("single job %d: %+v (err %v)", i, r[0].Run, r[0].Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmRunAllocations gates what a store-hit POST /v1/run allocates
// inside the handler (request decode, two spans, store read, codec decode,
// response encode) with the request and recorder reused: 67 before the
// warm-hit fast path, 42 with it, 41 before the request was read without
// reflection and 34 after; 31 once span IDs were minted without fmt, 33
// since the 200 sets Content-Length, and 32 since the tracer keeps its
// slowest-span list without sort.Slice. The gate keeps the 33.
func TestWarmRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	methods := hostableMethods(t, 1)
	sched := NewScheduler(SchedulerOptions{Workers: 1, MaxMeshCycles: testMaxCycles, Store: st})
	handler := NewHandler(NewService(sched, sim.Configurations(), methods))
	body := []byte(`{"config":"Compact2","method":"` + methods[0].Signature() + `"}`)
	w := httptest.NewRecorder()
	reader := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/run", reader)
	post := func() {
		reader.Reset(body)
		w.Body.Reset()
		handler.ServeHTTP(w, req)
	}
	post() // cold: runs the engine, fills the store
	hits := st.Stats().RunHits
	allocs := testing.AllocsPerRun(200, post)
	if w.Code != http.StatusOK || st.Stats().RunHits-hits < 200 {
		t.Fatalf("status %d, %d store hits: the measured requests were not warm hits", w.Code, st.Stats().RunHits-hits)
	}
	if allocs > 33 {
		t.Errorf("warm POST /v1/run: %.0f allocations per request, want <= 33", allocs)
	}
	t.Logf("warm POST /v1/run: %.0f allocations per request", allocs)
}
