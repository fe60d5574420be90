// Package experiments regenerates every table of the dissertation's
// evaluation (Tables 1–28) from the reproduction's own substrates: the
// instrumented interpreter for the Chapter 5 dynamic analysis, the static
// dataflow analyzer for Tables 6–14, and the fabric simulator for the
// Chapter 7 performance studies. cmd/jfbench and the repository's
// bench_test.go both drive this package.
//
// The load-bearing invariant: every sweep routes through the same
// serve.Scheduler/collect path the daemon uses — never a private engine
// loop — so scenario-keyed, dispatched, replicated and legacy sweeps all
// produce byte-identical digests (TestChapter7DigestsMatchSimResults
// compares them).
package experiments

import (
	"context"
	"fmt"
	"runtime"

	"javaflow/internal/classfile"
	"javaflow/internal/dataflow"
	"javaflow/internal/dispatch"
	"javaflow/internal/jvm"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
	"javaflow/internal/workload"
)

// Context caches the expensive intermediate products so a full table sweep
// computes each once.
type Context struct {
	// Scale is the benchmark iteration multiplier for dynamic profiling.
	Scale int
	// Seed and GenCount parameterize the generated method population.
	Seed     int64
	GenCount int
	// MaxMeshCycles bounds each simulated execution.
	MaxMeshCycles int
	// Workers sizes the simulation worker pool the sweeps fan out over
	// (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Peers lists remote jfserved base URLs to shard sweeps across
	// (consistent-hash dispatch); empty runs everything in process. The
	// peers must serve the same corpus (same -gen/-seed) and
	// configurations. Set before the first sweep.
	Peers []string

	sched     *serve.Scheduler
	runner    serve.BatchRunner
	store     *store.Store
	suites    []*workload.Suite
	profiles  map[string]*jvm.Profile // suite name -> dynamic profile
	corpus    []*classfile.Method
	rows      []dataflow.MethodRow
	simResult map[string]*sim.ConfigResults
	hotSet    map[string]bool
}

// NewContext returns a context with the defaults used throughout the
// reproduction: a ~1,600-method population (named SPEC analogs plus the
// generated corpus) matching the dissertation's 1,605.
func NewContext() *Context {
	return &Context{
		Scale:         2,
		Seed:          2014,
		GenCount:      1580,
		MaxMeshCycles: 400_000,
		Workers:       runtime.GOMAXPROCS(0),
	}
}

// Scheduler returns the context's simulation scheduler (built on first
// use): a bounded worker pool over a deployment cache shared by every
// sweep, so each (method, configuration) deployment happens once across
// all tables and ablations. If OpenStore was called first, the scheduler
// additionally reads prior MethodRuns through the persistent store.
func (c *Context) Scheduler() *serve.Scheduler {
	if c.sched == nil {
		c.sched = serve.NewScheduler(serve.SchedulerOptions{
			Workers:       c.Workers,
			MaxMeshCycles: c.MaxMeshCycles,
			Store:         c.store,
		})
	}
	return c.sched
}

// BatchRunner returns the executor sweeps fan out over (built on first
// use): the local scheduler, or — when Peers is set — a consistent-hash
// dispatcher fronting the remote instances with the scheduler as
// fallback.
func (c *Context) BatchRunner() (serve.BatchRunner, error) {
	if c.runner != nil {
		return c.runner, nil
	}
	if len(c.Peers) == 0 {
		c.runner = c.Scheduler()
		return c.runner, nil
	}
	d, err := dispatch.New(dispatch.Options{
		Peers:    c.Peers,
		Local:    c.Scheduler(),
		Tracer:   c.Scheduler().Metrics().Tracer(),
		Registry: c.Scheduler().Metrics().Registry(),
	})
	if err != nil {
		return nil, err
	}
	c.runner = d
	return c.runner, nil
}

// DispatchStats returns the dispatcher's routing stats, or nil when sweeps
// run purely in process.
func (c *Context) DispatchStats() *dispatch.Stats {
	if d, ok := c.runner.(*dispatch.Dispatcher); ok {
		s := d.Stats()
		return &s
	}
	return nil
}

// OpenStore attaches a persistent result store rooted at dir, so sweeps
// reuse MethodRuns computed by earlier jfbench or jfserved processes.
// Must be called before the first sweep (i.e. before Scheduler is built).
func (c *Context) OpenStore(dir string) error {
	if c.sched != nil {
		return fmt.Errorf("experiments: OpenStore called after the scheduler was built")
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	c.store = st
	return nil
}

// Store returns the attached persistent store (nil without OpenStore).
func (c *Context) Store() *store.Store { return c.store }

// Close flushes and closes the persistent store, if one is attached. The
// context remains usable for in-memory work.
func (c *Context) Close() error {
	if c.store == nil {
		return nil
	}
	err := c.store.Close()
	c.store = nil
	return err
}

// Suites returns the benchmark roster.
func (c *Context) Suites() []*workload.Suite {
	if c.suites == nil {
		c.suites = workload.AllSuites()
	}
	return c.suites
}

// Profile runs a suite's driver on a fresh machine and returns its dynamic
// profile (cached).
func (c *Context) Profile(s *workload.Suite) (*jvm.Profile, error) {
	if c.profiles == nil {
		c.profiles = make(map[string]*jvm.Profile)
	}
	if p, ok := c.profiles[s.Name]; ok {
		return p, nil
	}
	vm := jvm.NewMachine()
	if err := s.Register(vm); err != nil {
		return nil, err
	}
	if err := s.Run(vm, c.Scale); err != nil {
		return nil, fmt.Errorf("experiments: running %s: %w", s.Name, err)
	}
	c.profiles[s.Name] = vm.Profile
	return vm.Profile, nil
}

// Corpus returns the full simulation population: every named SPEC-analog
// method plus the generated methods.
func (c *Context) Corpus() []*classfile.Method {
	if c.corpus == nil {
		c.corpus = workload.Corpus(c.Seed, c.GenCount)
	}
	return c.corpus
}

// Rows returns the static dataflow analysis of the corpus.
func (c *Context) Rows() ([]dataflow.MethodRow, error) {
	if c.rows == nil {
		rows, err := dataflow.AnalyzeAll(c.Corpus())
		if err != nil {
			return nil, err
		}
		c.rows = rows
	}
	return c.rows, nil
}

// HotSet returns the signatures of the named hot methods (the top-90%
// dynamic set standing in for Filter 2's selection).
func (c *Context) HotSet() map[string]bool {
	if c.hotSet == nil {
		c.hotSet = make(map[string]bool)
		for _, s := range c.Suites() {
			for _, sig := range s.HotMethods {
				c.hotSet[sig] = true
			}
			// Every named method is part of the dynamically hot corpus.
			for _, m := range s.AllMethods() {
				c.hotSet[m.Signature()] = true
			}
		}
	}
	return c.hotSet
}

// SimResults runs the full population on one configuration (cached),
// fanning the sweep across the scheduler's worker pool with deployments
// served from the shared cache. Results are identical to the serial
// sim.Runner path.
func (c *Context) SimResults(cfg sim.Config) (*sim.ConfigResults, error) {
	if c.simResult == nil {
		c.simResult = make(map[string]*sim.ConfigResults)
	}
	if r, ok := c.simResult[cfg.Name]; ok {
		return r, nil
	}
	runner, err := c.BatchRunner()
	if err != nil {
		return nil, err
	}
	methods := c.Corpus()
	jobs := make([]serve.Job, len(methods))
	for i, m := range methods {
		jobs[i] = serve.Job{Config: cfg, Method: m}
	}
	results := runner.RunBatchCycles(context.Background(), jobs, c.MaxMeshCycles)
	cr, err := serve.CollectRuns(cfg, results)
	if err != nil {
		return nil, err
	}
	c.simResult[cfg.Name] = cr
	return cr, nil
}

// Baseline returns the Baseline configuration's results.
func (c *Context) Baseline() (*sim.ConfigResults, error) {
	for _, cfg := range sim.Configurations() {
		if cfg.Name == "Baseline" {
			return c.SimResults(cfg)
		}
	}
	return nil, fmt.Errorf("experiments: no baseline configuration")
}
