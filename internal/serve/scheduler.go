package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/obs"
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

// BatchRunner is the RunBatch-shaped seam between the HTTP surface and
// whatever executes jobs: the process-local Scheduler, or a dispatcher
// fanning jobs across remote jfserved instances (internal/dispatch).
// Implementations must fill one result per job in submission order and,
// when emit is non-nil, deliver each completed result exactly once in
// submission order as the batch progresses.
type BatchRunner interface {
	// RunMethodCycles executes one job on the caller's goroutine — the
	// POST /v1/run path, which has no batch to order.
	RunMethodCycles(ctx context.Context, cfg sim.Config, m *classfile.Method, maxCycles int) (sim.MethodRun, error)
	// RunBatchCycles executes jobs with the given per-execution mesh-cycle
	// bound (0 = implementation default) and returns one result per job in
	// submission order.
	RunBatchCycles(ctx context.Context, jobs []Job, maxCycles int) []JobResult
	// RunBatchStream is RunBatchCycles with incremental delivery: emit is
	// called once per job, in submission order, as soon as that job and
	// every earlier one have completed.
	RunBatchStream(ctx context.Context, jobs []Job, maxCycles int, emit func(i int, r JobResult)) []JobResult
}

// Scheduler fans simulation jobs across a bounded goroutine pool, routing
// every deployment through a shared DeploymentCache. Results are returned
// in submission order regardless of completion order, so batch output is
// deterministic and byte-identical to the serial sim.Runner path.
type Scheduler struct {
	workers       int
	maxMeshCycles int
	cache         *DeploymentCache
	metrics       *Metrics
	store         *store.Store
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
	if opts.Store != nil {
		opts.Store.RegisterMetrics(metrics.Registry())
	}
	registerCacheMetrics(metrics.Registry(), cache)
	return &Scheduler{
		workers:       workers,
		maxMeshCycles: maxCycles,
		cache:         cache,
		metrics:       metrics,
		store:         opts.Store,
	}
}

// registerCacheMetrics exposes the deployment cache's counters in the
// node registry. Re-registration over a shared cache replaces the
// readers, so two schedulers over one cache never duplicate series.
func registerCacheMetrics(reg *obs.Registry, cache *DeploymentCache) {
	reg.CounterFunc("javaflow_cache_hits_total", "Deployment-cache hits.",
		func() float64 { return float64(cache.Stats().Hits) })
	reg.CounterFunc("javaflow_cache_misses_total", "Deployment-cache misses.",
		func() float64 { return float64(cache.Stats().Misses) })
	reg.CounterFunc("javaflow_cache_evictions_total", "Deployment-cache evictions.",
		func() float64 { return float64(cache.Stats().Evictions) })
	reg.GaugeFunc("javaflow_cache_entries", "Deployments currently cached.",
		func() float64 { return float64(cache.Stats().Entries) })
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
func (s *Scheduler) runner(ctx context.Context, maxCycles int) *sim.Runner {
	if maxCycles <= 0 {
		maxCycles = s.maxMeshCycles
	}
	return &sim.Runner{
		MaxMeshCycles: maxCycles,
		Ctx:           ctx,
		Resolve: func(cfg sim.Config, m *classfile.Method) (*fabric.Resolution, error) {
			return s.cache.ResolveMethod(cfg, m)
		},
	}
}

// RunMethod executes one job synchronously through the cache (no pool).
func (s *Scheduler) RunMethod(ctx context.Context, cfg sim.Config, m *classfile.Method) (sim.MethodRun, error) {
	return s.RunMethodCycles(ctx, cfg, m, 0)
}

// RunMethodCycles is RunMethod with an explicit per-execution mesh-cycle
// bound overriding the scheduler default (0 keeps the default). It is the
// per-job entry point dispatch backends call directly.
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

	run, err := s.runner(ctx, maxCycles).RunMethod(cfg, m)
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

// RunBatch executes jobs across the worker pool and returns one result per
// job, in submission order. Cancelling ctx stops the pool: jobs already
// executing abort at the engine's next preemption check, jobs not yet
// started report ctx.Err().
func (s *Scheduler) RunBatch(ctx context.Context, jobs []Job) []JobResult {
	return s.RunBatchCycles(ctx, jobs, 0)
}

// RunBatchCycles is RunBatch with an explicit per-execution mesh-cycle
// bound overriding the scheduler default (0 keeps the default).
func (s *Scheduler) RunBatchCycles(ctx context.Context, jobs []Job, maxCycles int) []JobResult {
	return s.RunBatchStream(ctx, jobs, maxCycles, nil)
}

// RunBatchStream is RunBatchCycles with incremental, submission-ordered
// delivery through emit (see FanOut) — the seam POST
// /v1/batch?stream=ndjson flows through.
func (s *Scheduler) RunBatchStream(ctx context.Context, jobs []Job, maxCycles int, emit func(i int, r JobResult)) []JobResult {
	return FanOut(ctx, jobs, s.workers, emit, func(j Job) (sim.MethodRun, error) {
		return s.RunMethodCycles(ctx, j.Config, j.Method, maxCycles)
	})
}

// FanOut is the one ordered fan-out behind every BatchRunner: it executes
// run for each job on up to workers goroutines and returns one result per
// job in submission order, calling emit (when non-nil) exactly once per
// job, in submission order, as soon as that job and every earlier one have
// completed. Jobs not yet started when ctx is cancelled report ctx.Err()
// without running. A batch of one runs on the caller's goroutine — a pool
// buys a single job nothing but a handoff.
func FanOut(ctx context.Context, jobs []Job, workers int, emit func(i int, r JobResult), run func(Job) (sim.MethodRun, error)) []JobResult {
	results := make([]JobResult, len(jobs))
	for i, j := range jobs {
		results[i].Job = j
	}
	if len(jobs) <= 1 {
		for i, j := range jobs {
			if results[i].Err = ctx.Err(); results[i].Err == nil {
				results[i].Run, results[i].Err = run(j)
			}
			if emit != nil {
				emit(i, results[i])
			}
		}
		return results
	}

	indexes := make(chan int)
	// completed is buffered for the whole batch so neither workers nor the
	// feeder ever block on the collector.
	completed := make(chan int, len(jobs))
	var wg sync.WaitGroup
	for w := max(1, min(workers, len(jobs))); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexes {
				results[i].Run, results[i].Err = run(jobs[i])
				completed <- i
			}
		}()
	}
	go func() {
	feed:
		for i := range jobs {
			select {
			case indexes <- i:
			case <-ctx.Done():
				// Indexes from i on were never handed to a worker; jobs
				// that were already delivered stamp ctx.Err() themselves
				// via run's own context checks.
				for k := i; k < len(jobs); k++ {
					results[k].Err = ctx.Err()
					completed <- k
				}
				break feed
			}
		}
		close(indexes)
		wg.Wait()
		close(completed)
	}()

	// Collect completions and emit the contiguous prefix in order. Every
	// index arrives exactly once: from the worker that ran it, or from the
	// feeder for jobs cancelled before they were handed out.
	done := make([]bool, len(results))
	next := 0
	for i := range completed {
		done[i] = true
		for next < len(results) && done[next] {
			if emit != nil {
				emit(next, results[next])
			}
			next++
		}
	}
	return results
}

// Sweep fans a full cross product (methods × configs) across the pool and
// returns results grouped by configuration, each group in method order —
// the batch-submission shape POST /v1/batch and the Chapter-7 table sweeps
// share.
func (s *Scheduler) Sweep(ctx context.Context, configs []sim.Config, methods []*classfile.Method) [][]JobResult {
	jobs := make([]Job, 0, len(configs)*len(methods))
	for _, cfg := range configs {
		for _, m := range methods {
			jobs = append(jobs, Job{Config: cfg, Method: m})
		}
	}
	flat := s.RunBatch(ctx, jobs)
	out := make([][]JobResult, len(configs))
	for i := range configs {
		out[i] = flat[i*len(methods) : (i+1)*len(methods)]
	}
	return out
}

// RunAll is the pooled, cached equivalent of sim.Runner.RunAll: it executes
// the population on one configuration, skips fabric-rejected methods,
// filters timeouts, and produces results identical to the serial path.
func (s *Scheduler) RunAll(ctx context.Context, cfg sim.Config, methods []*classfile.Method) (*sim.ConfigResults, error) {
	jobs := make([]Job, len(methods))
	for i, m := range methods {
		jobs[i] = Job{Config: cfg, Method: m}
	}
	return CollectRuns(cfg, s.RunBatch(ctx, jobs))
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
