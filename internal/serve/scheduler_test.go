package serve

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

const testMaxCycles = 200_000

// TestRunAllMatchesSerialRunner is the core determinism contract: the
// pooled, cached sweep must be byte-identical to the serial sim.Runner
// path — same runs in the same order, same skip and timeout counts.
func TestRunAllMatchesSerialRunner(t *testing.T) {
	methods := workload.NamedMethods()
	for _, name := range []string{"Baseline", "Compact2", "Hetero2"} {
		cfg := testConfig(t, name)

		serialRunner := &sim.Runner{MaxMeshCycles: testMaxCycles}
		want, err := serialRunner.RunAll(cfg, methods)
		if err != nil {
			t.Fatalf("serial RunAll(%s): %v", name, err)
		}

		sched := NewScheduler(SchedulerOptions{Workers: 8, MaxMeshCycles: testMaxCycles})
		got, err := sched.RunAll(context.Background(), cfg, methods)
		if err != nil {
			t.Fatalf("scheduler RunAll(%s): %v", name, err)
		}

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pooled results differ from serial results", name)
		}
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		if string(wantJSON) != string(gotJSON) {
			t.Fatalf("%s: pooled results not byte-identical to serial results", name)
		}
	}
}

// TestRunAllDeterministicAcrossRuns re-runs the same warm-cache sweep and
// demands identical output both times.
func TestRunAllDeterministicAcrossRuns(t *testing.T) {
	methods := workload.NamedMethods()
	cfg := testConfig(t, "Compact4")
	sched := NewScheduler(SchedulerOptions{Workers: 6, MaxMeshCycles: testMaxCycles})

	first, err := sched.RunAll(context.Background(), cfg, methods)
	if err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	second, err := sched.RunAll(context.Background(), cfg, methods)
	if err != nil {
		t.Fatalf("second sweep: %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("warm-cache sweep differs from cold-cache sweep")
	}
	st := sched.Cache().Stats()
	if st.Hits == 0 {
		t.Fatalf("second sweep should have hit the cache: %+v", st)
	}
}

func TestSweepSharesCacheAcrossConfigs(t *testing.T) {
	methods := hostableMethods(t, 4)
	configs := []sim.Config{testConfig(t, "Compact2"), testConfig(t, "Sparse2")}
	sched := NewScheduler(SchedulerOptions{Workers: 4, MaxMeshCycles: testMaxCycles})

	var jobs []Job
	for _, cfg := range configs {
		for _, m := range methods {
			jobs = append(jobs, Job{Config: cfg, Method: m})
		}
	}
	results := sched.RunBatch(context.Background(), jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if want := methods[i%len(methods)].Signature(); r.Run.Signature != want {
			t.Fatalf("job %d out of order: %s, want %s", i, r.Run.Signature, want)
		}
	}
	// 4 methods × 2 configs = 8 distinct deployments, all misses.
	if st := sched.Cache().Stats(); st.Misses != 8 {
		t.Fatalf("expected 8 cold deployments: %+v", st)
	}

	// Re-sweeping is all hits.
	sched.RunBatch(context.Background(), jobs)
	if st := sched.Cache().Stats(); st.Hits != 8 {
		t.Fatalf("expected warm sweep to hit 8 times: %+v", st)
	}
}

func TestRunBatchPreCancelled(t *testing.T) {
	methods := hostableMethods(t, 3)
	cfg := testConfig(t, "Compact2")
	sched := NewScheduler(SchedulerOptions{Workers: 2, MaxMeshCycles: testMaxCycles})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := make([]Job, len(methods))
	for i, m := range methods {
		jobs[i] = Job{Config: cfg, Method: m}
	}
	results := sched.RunBatch(ctx, jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// TestRunBatchCancellationMidFlight cancels while the pool is draining a
// large batch: the call must return promptly with every slot populated —
// completed runs stay valid, unstarted jobs report the cancellation.
func TestRunBatchCancellationMidFlight(t *testing.T) {
	methods := workload.NamedMethods()
	cfg := testConfig(t, "Compact2")
	sched := NewScheduler(SchedulerOptions{Workers: 2, MaxMeshCycles: testMaxCycles})

	// Big batch: repeat the corpus so cancellation lands mid-stream.
	var jobs []Job
	for i := 0; i < 20; i++ {
		for _, m := range methods {
			jobs = append(jobs, Job{Config: cfg, Method: m})
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan []JobResult, 1)
	go func() { done <- sched.RunBatch(ctx, jobs) }()

	// Cancel once at least one job has completed, so the cancellation
	// lands mid-stream rather than before the pool starts.
	go func() {
		for sched.Metrics().Snapshot(nil, nil).Jobs == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()

	results := <-done

	cancelled, completed := 0, 0
	for i, r := range results {
		switch {
		case r.Err == nil && r.Run.Signature != "":
			completed++
		case errors.Is(r.Err, context.Canceled):
			cancelled++
		case r.Err != nil:
			// Load errors from fabric-rejected methods are fine.
		default:
			t.Fatalf("job %d has neither result nor error", i)
		}
	}
	if cancelled == 0 {
		t.Fatalf("expected some cancelled jobs (completed=%d of %d)", completed, len(jobs))
	}
}

func TestRunMethodThroughCache(t *testing.T) {
	methods := hostableMethods(t, 1)
	cfg := testConfig(t, "Hetero2")
	sched := NewScheduler(SchedulerOptions{Workers: 2, MaxMeshCycles: testMaxCycles})

	serial := &sim.Runner{MaxMeshCycles: testMaxCycles}
	want, err := serial.RunMethod(cfg, methods[0])
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	for i := 0; i < 3; i++ {
		got, err := sched.RunMethod(context.Background(), cfg, methods[0])
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d differs from the serial path", i)
		}
	}
	st := sched.Cache().Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("cache stats = %+v, want 1 miss / 2 hits", st)
	}
	m := sched.Snapshot()
	if m.Jobs != 3 || m.InFlight != 0 {
		t.Fatalf("metrics = %+v, want 3 jobs / 0 in flight", m)
	}
}
