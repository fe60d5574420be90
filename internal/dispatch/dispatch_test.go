package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/scenario/chaos"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

const testMaxCycles = 200_000

func testConfig(t testing.TB, name string) sim.Config {
	t.Helper()
	for _, cfg := range sim.Configurations() {
		if cfg.Name == name {
			return cfg
		}
	}
	t.Fatalf("no configuration %q", name)
	return sim.Config{}
}

// testMethods returns the first n named-corpus methods (hostable or not —
// rejections must flow through dispatch identically too).
func testMethods(t testing.TB, n int) []*classfile.Method {
	t.Helper()
	methods := workload.NamedMethods()
	if len(methods) < n {
		t.Fatalf("only %d named methods, want %d", len(methods), n)
	}
	return methods[:n]
}

// newPeer starts a real jfserved HTTP instance over the given corpus and
// returns its Remote backend.
func newPeer(t *testing.T, methods []*classfile.Method) (*httptest.Server, *serve.Service) {
	t.Helper()
	sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, MaxMeshCycles: testMaxCycles})
	svc := serve.NewService(sched, sim.Configurations(), methods)
	ts := httptest.NewServer(serve.NewHandler(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func newLocalScheduler() *serve.Scheduler {
	return serve.NewScheduler(serve.SchedulerOptions{Workers: 4, MaxMeshCycles: testMaxCycles})
}

func sweepJobs(t testing.TB, configNames []string, methods []*classfile.Method) []serve.Job {
	t.Helper()
	var jobs []serve.Job
	for _, name := range configNames {
		cfg := testConfig(t, name)
		for _, m := range methods {
			jobs = append(jobs, serve.Job{Config: cfg, Method: m})
		}
	}
	return jobs
}

// jobAt indexes a job list the way RunBatchStream asks for jobs.
func jobAt(jobs []serve.Job) func(int) serve.Job {
	return func(i int) serve.Job { return jobs[i] }
}

// assertSameResults demands got and want agree run-for-run, byte-for-byte.
func assertSameResults(t *testing.T, got, want []serve.JobResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			t.Fatalf("job %d: err = %v, want %v", i, got[i].Err, want[i].Err)
		}
		if got[i].Err != nil {
			var gle, wle *fabric.LoadError
			if errors.As(got[i].Err, &gle) != errors.As(want[i].Err, &wle) {
				t.Fatalf("job %d: error kind differs: %v vs %v", i, got[i].Err, want[i].Err)
			}
			continue
		}
		if !reflect.DeepEqual(got[i].Run, want[i].Run) {
			t.Fatalf("job %d (%s on %s): dispatched run differs from local run:\n got %+v\nwant %+v",
				i, got[i].Job.Method.Signature(), got[i].Job.Config.Name, got[i].Run, want[i].Run)
		}
	}
	gotJSON, _ := json.Marshal(runsOf(got))
	wantJSON, _ := json.Marshal(runsOf(want))
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("dispatched results not byte-identical to local results")
	}
}

func runsOf(rs []serve.JobResult) []sim.MethodRun {
	out := make([]sim.MethodRun, 0, len(rs))
	for _, r := range rs {
		if r.Err == nil {
			out = append(out, r.Run)
		}
	}
	return out
}

// TestDispatchMatchesLocal is the acceptance contract: a sweep dispatched
// across two live backends is byte-identical to the same sweep on the
// local scheduler, and both backends served jobs.
func TestDispatchMatchesLocal(t *testing.T) {
	methods := testMethods(t, 12)
	ts1, _ := newPeer(t, methods)
	ts2, _ := newPeer(t, methods)

	d, err := New(Options{Peers: []string{ts1.URL, ts2.URL}, Local: newLocalScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	jobs := sweepJobs(t, []string{"Compact2", "Hetero2"}, methods)

	got := d.RunBatchCycles(context.Background(), jobs, testMaxCycles)
	want := newLocalScheduler().RunBatchCycles(context.Background(), jobs, testMaxCycles)
	assertSameResults(t, got, want)

	st := d.Stats()
	if st.LocalFallbacks != 0 || st.Retries != 0 {
		t.Fatalf("healthy sweep used retries/fallbacks: %+v", st)
	}
	for _, b := range st.Backends {
		if b.Jobs == 0 {
			t.Fatalf("backend %s served no jobs (stats %+v)", b.Name, st)
		}
		if b.Suspended || b.Errors != 0 {
			t.Fatalf("backend %s unhealthy after clean sweep: %+v", b.Name, b)
		}
	}
	if st.Backends[0].Jobs+st.Backends[1].Jobs != int64(len(jobs)) {
		t.Fatalf("backends served %d+%d jobs, want %d total",
			st.Backends[0].Jobs, st.Backends[1].Jobs, len(jobs))
	}
}

// TestDispatchAffinity: the same method must land on the same backend on
// every submission, across configurations — that is what keeps one node's
// deployment cache hot for it.
func TestDispatchAffinity(t *testing.T) {
	methods := testMethods(t, 8)
	ts1, svc1 := newPeer(t, methods)
	ts2, svc2 := newPeer(t, methods)
	d, err := New(Options{Peers: []string{ts1.URL, ts2.URL}, Local: newLocalScheduler()})
	if err != nil {
		t.Fatal(err)
	}

	jobs := sweepJobs(t, []string{"Compact2"}, methods)
	d.RunBatchCycles(context.Background(), jobs, testMaxCycles)
	// Re-running the identical sweep must hit each backend's deployment
	// cache: same methods → same nodes.
	misses1 := svc1.Scheduler().Cache().Stats().Misses
	misses2 := svc2.Scheduler().Cache().Stats().Misses
	d.RunBatchCycles(context.Background(), jobs, testMaxCycles)
	if m := svc1.Scheduler().Cache().Stats().Misses; m != misses1 {
		t.Fatalf("backend 1 took %d new cache misses on a repeat sweep", m-misses1)
	}
	if m := svc2.Scheduler().Cache().Stats().Misses; m != misses2 {
		t.Fatalf("backend 2 took %d new cache misses on a repeat sweep", m-misses2)
	}
}

// TestDispatchBackendDownAtStart: one peer is unreachable from the first
// job. Every job still completes with correct results via the retry path.
func TestDispatchBackendDownAtStart(t *testing.T) {
	methods := testMethods(t, 10)
	ts, _ := newPeer(t, methods)
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close() // connection refused from the start

	d, err := New(Options{Peers: []string{ts.URL, deadURL}, Local: newLocalScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	jobs := sweepJobs(t, []string{"Compact2"}, methods)
	got := d.RunBatchCycles(context.Background(), jobs, testMaxCycles)
	want := newLocalScheduler().RunBatchCycles(context.Background(), jobs, testMaxCycles)
	assertSameResults(t, got, want)

	st := d.Stats()
	var deadStats, liveStats BackendStats
	for _, b := range st.Backends {
		if b.Name == deadURL {
			deadStats = b
		} else {
			liveStats = b
		}
	}
	if deadStats.Jobs != 0 || deadStats.Errors == 0 {
		t.Fatalf("dead backend stats: %+v", deadStats)
	}
	if liveStats.Jobs == 0 {
		t.Fatalf("live backend served nothing: %+v", st)
	}
	if st.Retries == 0 {
		t.Fatalf("expected retries away from the dead backend: %+v", st)
	}
}

// partitionCorpus is the method pool partitionByOwner draws from: the
// named corpus plus a generated tranche, so each backend owns enough
// signatures no matter how the ring hashes its (ephemeral-port) names.
func partitionCorpus() []*classfile.Method {
	methods := workload.NamedMethods()
	for _, c := range workload.Generate(workload.GenConfig{Seed: 11, Count: 40}) {
		for _, n := range c.MethodNames() {
			methods = append(methods, c.Methods[n])
		}
	}
	return methods
}

// partitionByOwner picks methods until each of the dispatcher's two
// backends owns at least want signatures, returning the combined set —
// so tests that kill one backend know it had jobs before and after the
// kill, regardless of how the corpus hashes.
func partitionByOwner(t *testing.T, d *Dispatcher, want int) []*classfile.Method {
	t.Helper()
	counts := make([]int, 2)
	var out []*classfile.Method
	for _, m := range partitionCorpus() {
		owner := d.ring.owner(m.Signature(), nil)
		if counts[owner] >= want {
			continue
		}
		counts[owner]++
		out = append(out, m)
		if counts[0] >= want && counts[1] >= want {
			return out
		}
	}
	t.Fatalf("could not find %d methods per backend (got %v)", want, counts)
	return nil
}

// TestDispatchBackendDiesMidBatch kills one backend partway through a
// sweep: jobs routed to it afterwards must be retried on the surviving
// node and the merged results must still match the local path.
func TestDispatchBackendDiesMidBatch(t *testing.T) {
	corpus := partitionCorpus()
	ts1, _ := newPeer(t, corpus)
	ts2, _ := newPeer(t, corpus)
	// The flaky backend serves its first job, then dies.
	flaky := &chaos.FlakyBackend{Inner: NewRemote(ts2.URL, nil), FailAfter: 1}

	d, err := NewWithBackends([]Backend{NewRemote(ts1.URL, nil), flaky}, Options{
		Local: newLocalScheduler(),
		// Serialize per-backend so "first job, then dead" is exact.
		MaxInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Guarantee the flaky backend owns several signatures: at least one
	// succeeds, the rest fail mid-batch and must land elsewhere.
	methods := partitionByOwner(t, d, 4)

	jobs := sweepJobs(t, []string{"Compact2"}, methods)
	got := d.RunBatchCycles(context.Background(), jobs, testMaxCycles)
	want := newLocalScheduler().RunBatchCycles(context.Background(), jobs, testMaxCycles)
	assertSameResults(t, got, want)

	st := d.Stats()
	if st.Retries == 0 {
		t.Fatalf("backend died mid-batch but nothing was retried: %+v", st)
	}
	for _, b := range st.Backends {
		if b.Name == flaky.Name() {
			if b.Jobs == 0 {
				t.Fatalf("flaky backend served nothing before dying: %+v", st)
			}
			if b.RetriedAway == 0 {
				t.Fatalf("no jobs retried away from the dead backend: %+v", st)
			}
		}
	}
}

// TestDispatchAllBackendsDownFallsBackLocal: with every peer unreachable
// the sweep must complete on the in-process scheduler with identical
// results.
func TestDispatchAllBackendsDownFallsBackLocal(t *testing.T) {
	methods := testMethods(t, 8)
	d1 := httptest.NewServer(nil)
	d2 := httptest.NewServer(nil)
	u1, u2 := d1.URL, d2.URL
	d1.Close()
	d2.Close()

	d, err := New(Options{Peers: []string{u1, u2}, Local: newLocalScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	jobs := sweepJobs(t, []string{"Hetero2"}, methods)
	got := d.RunBatchCycles(context.Background(), jobs, testMaxCycles)
	want := newLocalScheduler().RunBatchCycles(context.Background(), jobs, testMaxCycles)
	assertSameResults(t, got, want)

	st := d.Stats()
	if st.LocalFallbacks != int64(len(jobs)) {
		t.Fatalf("local fallbacks = %d, want %d (stats %+v)", st.LocalFallbacks, len(jobs), st)
	}
}

// TestDispatchNoPeers: a dispatcher with an empty ring is a working (if
// pointless) single-node runner.
func TestDispatchNoPeers(t *testing.T) {
	methods := testMethods(t, 4)
	d, err := New(Options{Local: newLocalScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	jobs := sweepJobs(t, []string{"Compact2"}, methods)
	got := d.RunBatchCycles(context.Background(), jobs, testMaxCycles)
	want := newLocalScheduler().RunBatchCycles(context.Background(), jobs, testMaxCycles)
	assertSameResults(t, got, want)
}

// TestDispatchRejectionsAreNotRetried: a typed fabric rejection is a real
// result every node agrees on; it must not burn the retry path or mark the
// backend unhealthy.
func TestDispatchRejectionsAreNotRetried(t *testing.T) {
	// Find a method the Compact2 fabric rejects.
	cfg := testConfig(t, "Compact2")
	var rejected *classfile.Method
	for _, m := range workload.NamedMethods() {
		if _, err := sim.DeployMethod(cfg, m); err != nil {
			rejected = m
			break
		}
	}
	if rejected == nil {
		t.Skip("no rejected method in the named corpus")
	}

	ts, _ := newPeer(t, []*classfile.Method{rejected})
	d, err := New(Options{Peers: []string{ts.URL}, Local: newLocalScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	results := d.RunBatchCycles(context.Background(),
		[]serve.Job{{Config: cfg, Method: rejected}}, testMaxCycles)

	var le *fabric.LoadError
	if !errors.As(results[0].Err, &le) {
		t.Fatalf("err = %v, want *fabric.LoadError", results[0].Err)
	}
	st := d.Stats()
	if st.Retries != 0 || st.LocalFallbacks != 0 {
		t.Fatalf("rejection triggered retries: %+v", st)
	}
	if st.Backends[0].Jobs != 1 || st.Backends[0].Errors != 0 {
		t.Fatalf("rejection miscounted: %+v", st.Backends[0])
	}

	// The single-job path: POST /v1/run through a front answers with the
	// backend's own 422 envelope, byte for byte, and still never retries.
	code, got := postRun(newFront(d, []*classfile.Method{rejected}), cfg.Name, rejected.Signature())
	directCode, direct := postRunURL(t, ts.URL, cfg.Name, rejected.Signature())
	if code != http.StatusUnprocessableEntity || code != directCode || !bytes.Equal(got, direct) {
		t.Fatalf("front answered %d %q, backend %d %q", code, got, directCode, direct)
	}
	st = d.Stats()
	if st.Retries != 0 || st.LocalFallbacks != 0 || st.Backends[0].Jobs != 2 || st.Backends[0].Errors != 0 {
		t.Fatalf("single-job rejection retried or miscounted: %+v", st)
	}
}

// blockingBackend holds one designated job until released — proof that
// streamed results flow before the batch finishes.
type blockingBackend struct {
	inner    Backend
	blockSig string
	release  chan struct{}
}

func (b *blockingBackend) Name() string { return b.inner.Name() }

func (b *blockingBackend) Run(ctx context.Context, job serve.Job, maxCycles int) (sim.MethodRun, error) {
	if job.Method.Signature() == b.blockSig {
		select {
		case <-b.release:
		case <-ctx.Done():
			return sim.MethodRun{}, ctx.Err()
		}
	}
	return b.inner.Run(ctx, job, maxCycles)
}

// TestDispatchStreamIsIncremental: earlier jobs must be emitted while a
// later job is still executing. If the dispatcher buffered the whole batch
// before emitting, this test would deadlock (and fail on timeout): the
// blocked job is only released after the first emit arrives.
func TestDispatchStreamIsIncremental(t *testing.T) {
	methods := testMethods(t, 6)
	ts, _ := newPeer(t, methods)
	lastSig := methods[len(methods)-1].Signature()
	blocking := &blockingBackend{
		inner:    NewRemote(ts.URL, nil),
		blockSig: lastSig,
		release:  make(chan struct{}),
	}
	d, err := NewWithBackends([]Backend{blocking}, Options{Local: newLocalScheduler()})
	if err != nil {
		t.Fatal(err)
	}

	jobs := sweepJobs(t, []string{"Compact2"}, methods)
	var (
		order   []int
		results []serve.JobResult
	)
	released := false
	done := make(chan struct{})
	emitFirst := make(chan struct{})
	go func() {
		defer close(done)
		d.RunBatchStream(context.Background(), len(jobs), jobAt(jobs), testMaxCycles, func(i int, r serve.JobResult) {
			order = append(order, i)
			results = append(results, r)
			if !released {
				released = true
				close(emitFirst)
			}
		})
	}()

	select {
	case <-emitFirst:
		// First result arrived while the last job was still blocked.
	case <-time.After(60 * time.Second):
		t.Fatal("no streamed result arrived while a later job was in flight")
	}
	close(blocking.release)
	<-done

	if len(order) != len(jobs) {
		t.Fatalf("emitted %d results for %d jobs", len(order), len(jobs))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("emission out of submission order: %v", order)
		}
	}
	want := newLocalScheduler().RunBatchCycles(context.Background(), jobs, testMaxCycles)
	assertSameResults(t, results, want)
}

// TestDispatchSelfPeerDoesNotRecurse: a front listing itself as a peer
// must terminate after one hop — the dispatched request carries
// serve.DispatchedHeader, so the receiving handler executes on the local
// scheduler instead of re-entering the dispatcher. Without the header
// this test would recurse until the inflight semaphore deadlocks (and
// fail on timeout).
func TestDispatchSelfPeerDoesNotRecurse(t *testing.T) {
	methods := testMethods(t, 3)
	sched := newLocalScheduler()
	svc := serve.NewService(sched, sim.Configurations(), methods)
	ts := httptest.NewServer(serve.NewHandler(svc))
	t.Cleanup(ts.Close)

	// The service's own URL is its only peer.
	d, err := New(Options{Peers: []string{ts.URL}, Local: sched, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetBatchRunner(d)

	jobs := sweepJobs(t, []string{"Compact2"}, methods)
	resCh := make(chan []serve.JobResult, 1)
	go func() { resCh <- d.RunBatchCycles(context.Background(), jobs, testMaxCycles) }()
	var got []serve.JobResult
	select {
	case got = <-resCh:
	case <-time.After(60 * time.Second):
		t.Fatal("self-peer dispatch did not terminate")
	}
	want := newLocalScheduler().RunBatchCycles(context.Background(), jobs, testMaxCycles)
	assertSameResults(t, got, want)
	if st := d.Stats(); st.LocalFallbacks != 0 {
		t.Fatalf("self-peer sweep fell back instead of one-hop executing: %+v", st)
	}
}

// TestDispatchSuspensionAndProbe: after FailureThreshold consecutive
// failures a backend is skipped without burning a network attempt per job,
// and the probe path sends it a real job again once healthy — but only
// after the jittered backoff delay has elapsed on the test clock.
func TestDispatchSuspensionAndProbe(t *testing.T) {
	methods := testMethods(t, 6)
	ts, _ := newPeer(t, methods)
	flaky := &chaos.FlakyBackend{Inner: NewRemote(ts.URL, nil), FailAfter: -1}
	flaky.Kill()

	clock := newTestClock()
	d, err := NewWithBackends([]Backend{flaky}, Options{
		Local:            newLocalScheduler(),
		FailureThreshold: 2,
		MaxInflight:      1,
		Now:              clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, "Compact2")
	runOne := func() {
		d.RunBatchCycles(context.Background(), []serve.Job{{Config: cfg, Method: methods[0]}}, testMaxCycles)
	}
	// Two failures suspend it.
	runOne()
	runOne()
	if st := d.Stats(); !st.Backends[0].Suspended {
		t.Fatalf("backend not suspended after %d failures: %+v", 2, st.Backends[0])
	}
	errsAtSuspend := d.Stats().Backends[0].Errors

	// While suspended and inside the backoff window, jobs skip it
	// entirely (no new errors, no probes)...
	flaky.Revive()
	for i := 0; i < 5; i++ {
		runOne()
	}
	if st := d.Stats(); !st.Backends[0].Suspended || st.Backends[0].Jobs != 0 {
		t.Fatalf("backend probed before its backoff elapsed: %+v", st.Backends[0])
	}
	// ...then once the clock passes the jittered delay, the probe path
	// routes a real job there and the suspension lifts.
	for i := 0; i < 10; i++ {
		clock.Advance(time.Minute)
		runOne()
	}
	st := d.Stats()
	// ...but the probe path routed at least one real job there, which
	// succeeded and lifted the suspension.
	if st.Backends[0].Suspended {
		t.Fatalf("backend still suspended after successful probe: %+v", st.Backends[0])
	}
	if st.Backends[0].Jobs == 0 {
		t.Fatalf("probe never reached the recovered backend: %+v", st.Backends[0])
	}
	if st.Backends[0].Errors != errsAtSuspend {
		t.Fatalf("suspended backend took new errors: %+v", st.Backends[0])
	}
}

// TestDispatchSingleJobInline: a one-job batch routes on the caller's
// goroutine with the pooled path's contract — an already-cancelled context
// reports ctx.Err() without reaching a backend, emit fires exactly once
// with index 0, and the result equals the pooled path's for the same job.
func TestDispatchSingleJobInline(t *testing.T) {
	methods := testMethods(t, 2)
	ts, _ := newPeer(t, methods)
	d, err := New(Options{Peers: []string{ts.URL}, Local: newLocalScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	jobs := sweepJobs(t, []string{"Compact2"}, methods)

	var (
		emitted []int
		single  []serve.JobResult
	)
	emit := func(i int, r serve.JobResult) { emitted = append(emitted, i); single = append(single, r) }
	d.RunBatchStream(context.Background(), 1, jobAt(jobs), testMaxCycles, emit)
	if !reflect.DeepEqual(emitted, []int{0}) {
		t.Fatalf("emitted %v, want exactly [0]", emitted)
	}
	var pooled []serve.JobResult
	d.RunBatchStream(context.Background(), len(jobs), jobAt(jobs), testMaxCycles, func(_ int, r serve.JobResult) { pooled = append(pooled, r) })
	assertSameResults(t, single, pooled[:1])
	direct, err := d.RunMethodCycles(context.Background(), jobs[0].Config, jobs[0].Method, testMaxCycles)
	if err != nil || !reflect.DeepEqual(direct, pooled[0].Run) {
		t.Fatalf("RunMethodCycles = %+v, %v; want the pooled result", direct, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := d.Stats().Backends[0].Jobs
	emitted, single = nil, nil
	d.RunBatchStream(ctx, 1, jobAt(jobs), testMaxCycles, emit)
	if single[0].Err != context.Canceled || !reflect.DeepEqual(emitted, []int{0}) {
		t.Fatalf("cancelled: err %v, emitted %v; want ctx.Err() and exactly [0]", single[0].Err, emitted)
	}
	if _, err := d.RunMethodCycles(ctx, jobs[0].Config, jobs[0].Method, testMaxCycles); err != context.Canceled {
		t.Fatalf("cancelled RunMethodCycles: err %v, want ctx.Err()", err)
	}
	if st := d.Stats(); st.Backends[0].Jobs != before || st.Backends[0].Errors != 0 {
		t.Fatalf("cancelled jobs reached the backend: %+v", st.Backends[0])
	}
}
