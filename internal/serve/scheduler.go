package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/sim"
	"javaflow/internal/store"
)

// Job is one unit of schedulable work: execute one method on one
// configuration under both branch policies.
type Job struct {
	Config sim.Config
	Method *classfile.Method
}

// JobResult pairs a job with its outcome. Exactly one of Run/Err is
// meaningful; Err carries *fabric.LoadError for methods the fabric
// rejects and ctx.Err() for jobs cancelled before they started.
type JobResult struct {
	Job Job
	Run sim.MethodRun
	Err error
}

// SchedulerOptions configures a Scheduler.
type SchedulerOptions struct {
	// Workers bounds the worker pool (<=0 uses GOMAXPROCS).
	Workers int
	// Cache shares deployments across jobs (nil builds a private cache
	// with the default capacity).
	Cache *DeploymentCache
	// Metrics receives per-job accounting (nil allocates a fresh one).
	Metrics *Metrics
	// MaxMeshCycles bounds each simulated execution — the per-job timeout
	// in simulated time (<=0 uses sim.DefaultMaxMeshCycles).
	MaxMeshCycles int
	// Store persists completed MethodRuns across process lives (nil
	// disables persistence). The scheduler reads through it before
	// executing and writes results behind.
	Store *store.Store
}

// BatchRunner is the seam between the HTTP surface and whatever executes
// jobs: the process-local Scheduler, or a dispatcher fanning jobs across
// remote jfserved instances (internal/dispatch). A batch is delivered
// through emit, one result per job in submission order, and never held
// whole: the service folds each result as it arrives.
type BatchRunner interface {
	// RunMethodCycles executes one job on the caller's goroutine — the
	// POST /v1/run path, which has no batch to order.
	RunMethodCycles(ctx context.Context, cfg sim.Config, m *classfile.Method, maxCycles int) (sim.MethodRun, error)
	// RunBatchStream executes the n jobs job(0) … job(n-1) with the given
	// per-execution mesh-cycle bound (0 = implementation default) and
	// calls emit once per job, in submission order, once that job and
	// every earlier one completed: on any goroutine, never two calls at
	// once, all before it returns.
	RunBatchStream(ctx context.Context, n int, job func(i int) Job, maxCycles int, emit func(i int, r JobResult))
}

// Scheduler fans simulation jobs across a bounded goroutine pool, routing
// every deployment through a shared DeploymentCache. Results are returned
// in submission order regardless of completion order, so batch output is
// deterministic and byte-identical to the serial sim.Runner path.
type Scheduler struct {
	workers       int
	maxMeshCycles int
	cache         *DeploymentCache
	// resolve is cache.ResolveMethod, bound once so a job's runner does
	// not allocate a closure.
	resolve func(sim.Config, *classfile.Method) (*fabric.Resolution, error)
	metrics *Metrics
	store   *store.Store
}

// NewScheduler builds a scheduler from opts.
func NewScheduler(opts SchedulerOptions) *Scheduler {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := opts.Cache
	if cache == nil {
		cache = NewDeploymentCache(0)
	}
	metrics := opts.Metrics
	if metrics == nil {
		metrics = NewMetrics()
	}
	maxCycles := opts.MaxMeshCycles
	if maxCycles <= 0 {
		maxCycles = sim.DefaultMaxMeshCycles
	}
	return &Scheduler{
		workers:       workers,
		maxMeshCycles: maxCycles,
		cache:         cache,
		resolve:       cache.ResolveMethod,
		metrics:       metrics,
		store:         opts.Store,
	}
}

// Cache exposes the scheduler's deployment cache.
func (s *Scheduler) Cache() *DeploymentCache { return s.cache }

// Workers returns the worker-pool bound batches fan out over.
func (s *Scheduler) Workers() int { return s.workers }

// Metrics exposes the scheduler's metrics collector.
func (s *Scheduler) Metrics() *Metrics { return s.metrics }

// Store exposes the scheduler's persistent result store (nil when the
// scheduler runs memory-only).
func (s *Scheduler) Store() *store.Store { return s.store }

// MaxMeshCycles returns the scheduler's default per-execution mesh-cycle
// bound — what a job with no explicit bound runs under. Dispatch fronts
// resolve this before fanning jobs out so every backend simulates (and
// keys its store records by) the same bound.
func (s *Scheduler) MaxMeshCycles() int { return s.maxMeshCycles }

// Snapshot captures the metrics counters together with the cache and
// store statistics — the GET /metrics payload.
func (s *Scheduler) Snapshot() MetricsSnapshot {
	return s.metrics.Snapshot(s.cache, s.store)
}

// runner builds the per-call runner routed through the cache. The context
// reaches the engine's mid-run preemption check, so cancelling a batch
// aborts even a single multimillion-cycle execution promptly.
func (s *Scheduler) runner(ctx context.Context, maxCycles int) sim.Runner {
	if maxCycles <= 0 {
		maxCycles = s.maxMeshCycles
	}
	return sim.Runner{MaxMeshCycles: maxCycles, Ctx: ctx, Resolve: s.resolve}
}

// RunMethodCycles executes one job synchronously through the cache (no
// pool) under an explicit per-execution mesh-cycle bound overriding the
// scheduler default (0 keeps the default). It is the per-job entry point
// dispatch backends call directly.
func (s *Scheduler) RunMethodCycles(ctx context.Context, cfg sim.Config, m *classfile.Method, maxCycles int) (sim.MethodRun, error) {
	if err := ctx.Err(); err != nil {
		return sim.MethodRun{}, err
	}
	if maxCycles <= 0 {
		maxCycles = s.maxMeshCycles
	}
	start := s.metrics.JobStarted()
	ctx, span := s.metrics.Tracer().StartSpan(ctx, "job.run")
	span.SetAttr("config", cfg.Name)
	span.SetAttr("method", m.Signature())

	// Read through the persistent store: a run persisted by an earlier
	// process life (or another configuration sharing this geometry and
	// clocking) replaces the whole two-policy execution. The Config label
	// is re-stamped because the store key is geometry-based, making the
	// payload byte-identical to a cold run under this configuration.
	var key store.RunKey
	if s.store != nil {
		key = store.RunKeyFor(cfg, m, maxCycles)
		if run, ok := s.store.GetRun(key); ok {
			run.BP1.Config = cfg.Name
			run.BP2.Config = cfg.Name
			s.metrics.JobFinished(start, span.Context().TraceID, nil)
			span.SetAttr("outcome", "warm")
			span.End(nil)
			return run, nil
		}
	}

	runner := s.runner(ctx, maxCycles)
	run, err := runner.RunMethod(cfg, m)
	s.metrics.JobFinished(start, span.Context().TraceID, err)
	if err == nil && s.store != nil {
		s.store.PutRun(key, run)
	}
	span.SetAttr("outcome", jobOutcome(err))
	span.End(err)
	return run, err
}

// jobOutcome classifies a job error for span attributes: cold engine
// runs, fabric rejections, deadline sheds, cancellations, and
// everything else.
func jobOutcome(err error) string {
	if err == nil {
		return "cold"
	}
	var le *fabric.LoadError
	if errors.As(err, &le) {
		return "rejected"
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	if errors.Is(err, context.Canceled) {
		return "canceled"
	}
	return "error"
}

// RunBatchCycles executes jobs across the worker pool under an explicit
// per-execution mesh-cycle bound (0 keeps the scheduler default) and
// returns one result per job, in submission order. Cancelling ctx stops
// the pool: jobs already executing abort at the engine's next preemption
// check, jobs not yet started report ctx.Err(). It holds the whole batch;
// the service's batch paths fold results as they arrive through
// RunBatchStream instead.
func (s *Scheduler) RunBatchCycles(ctx context.Context, jobs []Job, maxCycles int) []JobResult {
	results := make([]JobResult, len(jobs))
	s.RunBatchStream(ctx, len(jobs), func(i int) Job { return jobs[i] }, maxCycles, func(i int, r JobResult) { results[i] = r })
	return results
}

// RunBatchStream delivers a batch through emit in submission order (see
// FanOut) — the seam POST /v1/batch flows through.
func (s *Scheduler) RunBatchStream(ctx context.Context, n int, job func(int) Job, maxCycles int, emit func(i int, r JobResult)) {
	FanOut(ctx, n, job, s.workers, emit, func(j Job) (sim.MethodRun, error) {
		return s.RunMethodCycles(ctx, j.Config, j.Method, maxCycles)
	})
}

// FanOut is the one ordered fan-out behind every BatchRunner: it runs the
// n jobs job(0) … job(n-1) on up to workers goroutines, the caller's among
// them, and calls emit exactly once per job, in submission order, as soon
// as that job and every earlier one have completed: from whichever worker
// completes the head, never two calls at once, the last before FanOut
// returns. No job list is held: job(i) is called when i is claimed and
// again when it is emitted. Results that complete early wait in a reorder
// window as wide as the spread of completions, not the batch. Jobs not
// yet started when ctx is cancelled report ctx.Err() without running. A
// batch of one runs on the caller's goroutine alone.
func FanOut(ctx context.Context, n int, job func(int) Job, workers int, emit func(i int, r JobResult), run func(Job) (sim.MethodRun, error)) {
	workers = max(1, min(workers, n))
	var (
		claimed  atomic.Int64
		mu       sync.Mutex // guards win, emitting and held
		win      reorderWindow
		emitting bool // a worker is draining the window through emit
		// held is how far deposits have outrun emits in the current drain;
		// at workers, depositors wait, so a blocked emit stops the pool.
		held    int
		drained = sync.NewCond(&mu)
		wg      sync.WaitGroup
	)
	work := func() {
		defer wg.Done()
		for i := int(claimed.Add(1)) - 1; i < n; i = int(claimed.Add(1)) - 1 {
			// A worker never blocks, so it yields once per job: timers and
			// other goroutines of this process must not wait out a time slice.
			runtime.Gosched()
			c := completion{i: i, err: ctx.Err()}
			if c.err == nil {
				c.run, c.err = run(job(i))
			}
			mu.Lock()
			win.put(i-win.next, c)
			if emitting { // the emitting worker picks c up
				held++
				for emitting && held >= workers {
					drained.Wait()
				}
				mu.Unlock()
				continue
			}
			emitting, held = true, 0
			for c, ok := win.pop(); ok; c, ok = win.pop() {
				mu.Unlock()
				emit(c.i, JobResult{Job: job(c.i), Run: c.run, Err: c.err})
				mu.Lock()
				held--
				drained.Broadcast()
			}
			emitting = false
			drained.Broadcast()
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for w := workers; w > 1; w-- {
		go work()
	}
	work()
	wg.Wait()
}

// completion is one job's outcome, held in the reorder window until emitted.
type completion struct {
	i   int
	run sim.MethodRun
	err error
	ok  bool // set by reorderWindow.put: the slot holds a result
}

// reorderWindow holds the results that completed ahead of next, the first
// index not yet emitted: index next+d sits in slots[(head+d)&(len-1)]. The
// slice is reused as next advances and doubles (staying a power of two)
// only when a result lands beyond it, so it is as wide as the widest
// spread of completions the batch saw.
type reorderWindow struct {
	slots []completion
	head  int
	next  int
}

// put stores c, which is d indexes past next.
func (w *reorderWindow) put(d int, c completion) {
	if d >= len(w.slots) {
		n := max(1, len(w.slots))
		for n <= d {
			n *= 2
		}
		grown := make([]completion, n)
		for k := range w.slots {
			grown[k] = w.slots[(w.head+k)&(len(w.slots)-1)]
		}
		w.slots, w.head = grown, 0
	}
	c.ok = true
	w.slots[(w.head+d)&(len(w.slots)-1)] = c
}

// pop removes and returns the result for next, if it has arrived.
func (w *reorderWindow) pop() (completion, bool) {
	if len(w.slots) == 0 || !w.slots[w.head].ok {
		return completion{}, false
	}
	c := w.slots[w.head]
	w.slots[w.head] = completion{} // drop the run's strings and the error
	w.head = (w.head + 1) & (len(w.slots) - 1)
	w.next++
	return c, true
}

// RunAll is the pooled, cached equivalent of sim.Runner.RunAll: it executes
// the population on one configuration, skips fabric-rejected methods,
// filters timeouts, and produces results identical to the serial path.
func (s *Scheduler) RunAll(ctx context.Context, cfg sim.Config, methods []*classfile.Method) (*sim.ConfigResults, error) {
	results := make([]JobResult, len(methods))
	s.RunBatchStream(ctx, len(methods), func(i int) Job { return Job{Config: cfg, Method: methods[i]} }, 0,
		func(i int, r JobResult) { results[i] = r })
	return CollectRuns(cfg, results)
}

// CollectRuns folds ordered per-job results into the ConfigResults shape of
// sim.Runner.RunAll, applying the same skip and timeout filters.
func CollectRuns(cfg sim.Config, results []JobResult) (*sim.ConfigResults, error) {
	out := &sim.ConfigResults{Config: cfg}
	for _, r := range results {
		if r.Err != nil {
			var le *fabric.LoadError
			if errors.As(r.Err, &le) {
				out.Skipped++
				continue
			}
			return nil, fmt.Errorf("sim: %s: %w", r.Job.Method.Signature(), r.Err)
		}
		if r.Run.BP1.TimedOut || r.Run.BP2.TimedOut {
			out.TimedOut++
			continue
		}
		out.Runs = append(out.Runs, r.Run)
	}
	return out, nil
}
