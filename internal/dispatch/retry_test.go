package dispatch

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/classfile"
	"javaflow/internal/peer"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
)

// testClock is a manually-advanced time source for the probe-schedule
// and retry-budget tests.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// deadBackend fails every job and records the fake-clock instant of each
// attempt, so the test can inspect probe spacing.
type deadBackend struct {
	name  string
	clock *testClock

	mu       sync.Mutex
	attempts []time.Time
}

func (b *deadBackend) Name() string { return b.name }

func (b *deadBackend) Run(ctx context.Context, job serve.Job, maxCycles int) (sim.MethodRun, error) {
	b.mu.Lock()
	b.attempts = append(b.attempts, b.clock.Now())
	b.mu.Unlock()
	return sim.MethodRun{}, errors.New("dead")
}

func (b *deadBackend) attemptTimes() []time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Time(nil), b.attempts...)
}

// TestProbeSpacingDecorrelatedJitter pins the acceptance criterion:
// under a dead backend, probe attempts are spaced on a growing, jittered
// schedule — strictly non-decreasing gaps up to the cap, never the old
// fixed cadence — measured entirely on a fake clock.
func TestProbeSpacingDecorrelatedJitter(t *testing.T) {
	methods := testMethods(t, 1)
	clock := newTestClock()
	dead := &deadBackend{name: "peer-dead", clock: clock}

	// Every backend's probe schedule is built from the admit defaults.
	const base, cap = admit.DefaultBackoffBase, admit.DefaultBackoffCap
	d, err := NewWithBackends([]Backend{dead}, Options{
		Local:            newLocalScheduler(),
		FailureThreshold: 1,
		Now:              clock.Now,
		// Pin jitter at its upper edge so the schedule is deterministic:
		// each delay is exactly min(3*prev, cap). Jitter variability
		// itself is unit-tested in the admit package.
		Rand: func() float64 { return 1.0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, "Compact2")
	job := []serve.Job{{Config: cfg, Method: methods[0]}}

	// Drive jobs on a tick far finer than the backoff growth: wall-clock
	// pressure is constant, so any spacing in the attempt log is the
	// probe schedule's doing.
	for i := 0; i < 2000; i++ {
		d.RunBatchCycles(context.Background(), job, testMaxCycles)
		clock.Advance(50 * time.Millisecond) // 100s of fake time total
	}

	times := dead.attemptTimes()
	if len(times) < 4 {
		t.Fatalf("only %d probe attempts in 100s of fake time, want enough to see spacing", len(times))
	}
	// First attempt is the initial failure; gaps between subsequent
	// attempts must respect the backoff envelope: at least base, at most
	// cap plus one driver tick of slack.
	var gaps []time.Duration
	for i := 1; i < len(times); i++ {
		gaps = append(gaps, times[i].Sub(times[i-1]))
	}
	for i, g := range gaps {
		if g < base {
			t.Fatalf("gap %d = %v, below backoff base %v (immediate re-probe)", i, g, base)
		}
		if g > cap+50*time.Millisecond {
			t.Fatalf("gap %d = %v, beyond backoff cap %v", i, g, cap)
		}
	}
	// The schedule must grow: the late gaps must be meaningfully wider
	// than the early ones (decorrelated jitter trends 2x per step toward
	// the cap; a fixed cadence would keep them equal).
	if last, first := gaps[len(gaps)-1], gaps[0]; last < 4*first {
		t.Fatalf("probe gaps did not grow: first %v, last %v", first, last)
	}
	// And with ~2000 jobs offered, the dead backend saw only a handful of
	// probes — pressure decayed instead of tracking offered load.
	if len(times) > 40 {
		t.Fatalf("dead backend absorbed %d attempts from 2000 jobs; probing must decay", len(times))
	}
}

// TestRetryBudgetNeverExceeded pins the other half of the criterion: the
// number of jobs rerouted to a second node on a dead backend's behalf
// never exceeds its token budget, and every job still completes (locally)
// with results byte-identical to the serial path.
func TestRetryBudgetNeverExceeded(t *testing.T) {
	corpus := partitionCorpus()
	clock := newTestClock()
	dead := &deadBackend{name: "peer-dead", clock: clock}
	ts, _ := newPeer(t, corpus)
	healthy := NewRemote(ts.URL, nil)

	// Every backend's bucket is built from the admit defaults.
	const burst, rate = admit.DefaultRetryBurst, admit.DefaultRetryRate
	d, err := NewWithBackends([]Backend{dead, healthy}, Options{
		Local:            newLocalScheduler(),
		FailureThreshold: 1000, // keep the dead backend routable: owned jobs keep hitting it
		Now:              clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, "Compact2")

	// Only methods whose ring owner is the dead backend exercise the
	// failure path; pick hostable ones so the fallback run succeeds.
	var owned []*classfile.Method
	for _, m := range corpus {
		if d.ring.owner(m.Signature(), nil) != 0 {
			continue
		}
		if _, err := sim.DeployMethod(cfg, m); err != nil {
			continue
		}
		if owned = append(owned, m); len(owned) == 4 {
			break
		}
	}
	if len(owned) == 0 {
		t.Fatal("no hostable corpus method owned by the dead backend")
	}

	const jobsN = 40
	var jobs []serve.Job
	for i := 0; i < jobsN; i++ {
		jobs = append(jobs, serve.Job{Config: cfg, Method: owned[i%len(owned)]})
	}
	var got []serve.JobResult
	for _, job := range jobs {
		got = append(got, d.RunBatchCycles(context.Background(), []serve.Job{job}, testMaxCycles)...)
		clock.Advance(time.Second) // refills rate tokens/sec
	}

	st := d.Stats()
	deadStats := st.Backends[0]
	// Tokens available over the run: burst + rate × elapsed. Reroutes to
	// the healthy peer must stay under that; the rest fell back locally.
	maxTokens := int64(burst) + int64(rate*float64(jobsN))
	rerouted := deadStats.RetriedAway - deadStats.RetryBudgetDenied
	if rerouted > maxTokens {
		t.Fatalf("%d reroutes exceeded the %d-token budget", rerouted, maxTokens)
	}
	if deadStats.RetryBudgetDenied == 0 {
		t.Fatal("budget never denied a retry; the test should exhaust it")
	}
	if st.RetryBudgetDenials != deadStats.RetryBudgetDenied {
		t.Fatalf("aggregate denials %d != backend denials %d", st.RetryBudgetDenials, deadStats.RetryBudgetDenied)
	}

	// Every job completed with the right bytes regardless of which path
	// served it.
	want := newLocalScheduler().RunBatchCycles(context.Background(), jobs, testMaxCycles)
	assertSameResults(t, got, want)
}

// TestRemoteTimeoutOnStalledPeer is the satellite regression test: a peer
// that accepts the connection and then never sends response headers must
// fail the attempt at the transport's header timeout instead of pinning
// the inflight slot until the caller gives up — and a dispatcher whose only
// backend is that peer must still complete its batch, byte-identically, by
// local fallback.
func TestRemoteTimeoutOnStalledPeer(t *testing.T) {
	methods := testMethods(t, 4)
	stall := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall // hold the request open, never write headers
	}))
	defer ts.Close()
	defer close(stall) // LIFO: unblock the handler before Close waits on it

	remote := NewRemote(ts.URL, peer.NewClient(1, 200*time.Millisecond))
	cfg := testConfig(t, "Compact2")
	bound := time.After(5 * time.Second)

	done := make(chan error, 1)
	go func() {
		_, err := remote.Run(context.Background(), serve.Job{Config: cfg, Method: methods[0]}, testMaxCycles)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("stalled peer reported success")
		}
	case <-bound:
		t.Fatal("stalled peer pinned the attempt past the header timeout")
	}

	d, err := NewWithBackends([]Backend{remote}, Options{Local: newLocalScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	jobs := sweepJobs(t, []string{"Compact2"}, methods)
	batch := make(chan []serve.JobResult, 1)
	go func() { batch <- d.RunBatchCycles(context.Background(), jobs, testMaxCycles) }()
	select {
	case got := <-batch:
		assertSameResults(t, got, newLocalScheduler().RunBatchCycles(context.Background(), jobs, testMaxCycles))
	case <-bound:
		t.Fatal("stalled peer wedged the dispatched batch past the header timeout")
	}
	if st := d.Stats(); st.LocalFallbacks < 1 {
		t.Fatalf("batch behind a stalled peer completed without a local fallback: %+v", st)
	}
}

// TestDispatcherDefaultClientHasTimeouts pins that a Remote built without
// a client gets transport bounds — the regression was a default transport
// with no dial or header timeout.
func TestDispatcherDefaultClientHasTimeouts(t *testing.T) {
	if tr, ok := NewRemote("http://127.0.0.1:1", nil).client.Transport.(*http.Transport); !ok {
		t.Fatal("default remote client transport is not *http.Transport")
	} else {
		if tr.ResponseHeaderTimeout != remoteHeaderTimeout {
			t.Fatalf("default remote client ResponseHeaderTimeout = %v, want %v", tr.ResponseHeaderTimeout, remoteHeaderTimeout)
		}
		if tr.MaxIdleConnsPerHost != defaultInflight {
			t.Fatalf("default remote client keeps %d idle conns per host, want the inflight bound %d", tr.MaxIdleConnsPerHost, defaultInflight)
		}
		if tr.DialContext == nil {
			t.Fatal("default remote client has no bounded dialer")
		}
	}
}
