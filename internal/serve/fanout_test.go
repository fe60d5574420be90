package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"javaflow/internal/classfile"
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
	var (
		emitted []int
		results []JobResult
	)
	run := func(Job) (sim.MethodRun, error) { ran++; return want, nil } // unsynchronised: must stay on this goroutine
	emit := func(i int, r JobResult) { emitted = append(emitted, i); results = append(results, r) }

	FanOut(context.Background(), job, 4, emit, run)
	if ran != 1 || len(results) != 1 || results[0].Err != nil || results[0].Run != want || results[0].Job != job[0] {
		t.Fatalf("ran %d times, results %+v", ran, results)
	}
	if !reflect.DeepEqual(emitted, []int{0}) {
		t.Fatalf("emitted %v, want exactly [0]", emitted)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran, emitted, results = 0, nil, nil
	FanOut(ctx, job, 4, emit, run)
	if ran != 0 || !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("cancelled: ran %d times, err %v; want no run and context.Canceled", ran, results[0].Err)
	}
	if !reflect.DeepEqual(emitted, []int{0}) {
		t.Fatalf("cancelled: emitted %v, want exactly [0]", emitted)
	}
	if FanOut(ctx, nil, 4, emit, run); len(results) != 1 || len(emitted) != 1 {
		t.Fatalf("empty batch: %d results, %d emits", len(results)-1, len(emitted)-1)
	}
}

// streamed collects what RunBatchStream emits, in emission order, with the
// index each result came with.
func streamed(ctx context.Context, r BatchRunner, jobs []Job) (order []int, results []JobResult) {
	r.RunBatchStream(ctx, jobs, 0, func(i int, jr JobResult) {
		order = append(order, i)
		results = append(results, jr)
	})
	return order, results
}

// TestSchedulerSingleJobMatchesPool: the inline single-job path and the
// pooled path produce the same result for the same job.
func TestSchedulerSingleJobMatchesPool(t *testing.T) {
	job := Job{Config: testConfig(t, "Hetero2"), Method: hostableMethods(t, 1)[0]}
	sched := NewScheduler(SchedulerOptions{Workers: 4, MaxMeshCycles: testMaxCycles})
	emitted, single := streamed(context.Background(), sched, []Job{job})
	_, pooled := streamed(context.Background(), sched, []Job{job, job})
	if single[0].Err != nil || !reflect.DeepEqual(single[0], pooled[0]) || !reflect.DeepEqual(single[0], pooled[1]) {
		t.Fatalf("single %+v differs from pooled %+v", single[0], pooled)
	}
	if !reflect.DeepEqual(emitted, []int{0}) {
		t.Fatalf("emitted %v, want exactly [0]", emitted)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := sched.Snapshot().Jobs
	if _, r := streamed(ctx, sched, []Job{job}); !errors.Is(r[0].Err, context.Canceled) {
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

// orderedEmits returns an emit that fails the test unless every index
// arrives exactly once and strictly in order, and the results it saw.
func orderedEmits(t *testing.T, jobs []Job) (func(int, JobResult), *[]JobResult) {
	var results []JobResult
	return func(i int, r JobResult) {
		if i != len(results) {
			t.Fatalf("emitted index %d after %d results", i, len(results))
		}
		if r.Job != jobs[i] {
			t.Fatalf("emit %d carries the wrong job", i)
		}
		results = append(results, r)
	}, &results
}

// TestFanOutSkewedCompletion: whatever order jobs finish in, FanOut emits
// each index exactly once, in order. Three slow jobs each wait until a
// later job has run, so 3, 7 and 20 results complete ahead of them, and
// the reorder window has to grow while its head sits at three different
// slots.
func TestFanOutSkewedCompletion(t *testing.T) {
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i].Method = &classfile.Method{Name: strconv.Itoa(i)}
	}
	waitFor := map[int]int{0: 3, 10: 17, 30: 50} // slow job -> the job it waits for
	ran := make(map[int]chan struct{}, len(waitFor))
	for _, later := range waitFor {
		ran[later] = make(chan struct{})
	}
	run := func(j Job) (sim.MethodRun, error) {
		i, _ := strconv.Atoi(j.Method.Name)
		if later, ok := waitFor[i]; ok {
			<-ran[later]
		}
		if c, ok := ran[i]; ok {
			close(c)
		}
		return sim.MethodRun{Signature: j.Method.Name}, nil
	}
	emit, results := orderedEmits(t, jobs)
	FanOut(context.Background(), jobs, 4, emit, run)
	if len(*results) != len(jobs) {
		t.Fatalf("emitted %d results for %d jobs", len(*results), len(jobs))
	}
	for i, r := range *results {
		if r.Err != nil || r.Run.Signature != strconv.Itoa(i) {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
}

// TestFanOutCancelledSlowHead: a slow head job that is cancelled still
// emits first, with the context's error, followed by every job that ran
// behind it and then every job that never started — each exactly once,
// in order.
func TestFanOutCancelledSlowHead(t *testing.T) {
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i].Method = &classfile.Method{Name: strconv.Itoa(i)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	run := func(j Job) (sim.MethodRun, error) {
		if j.Method.Name == "0" {
			<-ctx.Done()
			return sim.MethodRun{}, ctx.Err()
		}
		if ran.Add(1) == 20 {
			cancel()
		}
		return sim.MethodRun{Signature: j.Method.Name}, nil
	}
	emit, results := orderedEmits(t, jobs)
	FanOut(ctx, jobs, 4, emit, run)
	if len(*results) != len(jobs) {
		t.Fatalf("emitted %d results for %d jobs", len(*results), len(jobs))
	}
	if !errors.Is((*results)[0].Err, context.Canceled) {
		t.Fatalf("slow head: err %v, want context.Canceled", (*results)[0].Err)
	}
	done := 0
	for i, r := range (*results)[1:] {
		switch {
		case r.Err == nil && r.Run.Signature == strconv.Itoa(i+1):
			done++
		case !errors.Is(r.Err, context.Canceled):
			t.Fatalf("result %d: %+v", i+1, r)
		}
	}
	if done != int(ran.Load()) || done >= len(jobs)-1 {
		t.Fatalf("%d results ran, %d runs counted; want every run emitted and the rest cancelled", done, ran.Load())
	}
}
