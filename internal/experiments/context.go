// Package experiments regenerates every table of the dissertation's
// evaluation (Tables 1–28) from the reproduction's own substrates: the
// instrumented interpreter for the Chapter 5 dynamic analysis, the static
// dataflow analyzer for Tables 6–14, and the fabric simulator for the
// Chapter 7 performance studies. cmd/jfbench and the repository's
// bench_test.go both drive this package.
//
// The load-bearing invariant: the tables and the scenario presets share one
// sweep, serve.Scheduler.RunAll, over the same pool and cache the daemon
// uses — never a private engine loop — so scenario-keyed and table sweeps
// produce byte-identical digests (TestChapter7DigestsMatchSimResults
// compares them), and the rendered output at jfbench defaults is pinned
// byte for byte in testdata (TestGoldenOutput).
package experiments

import (
	"context"
	"fmt"
	"runtime"

	"javaflow/internal/classfile"
	"javaflow/internal/dataflow"
	"javaflow/internal/jvm"
	"javaflow/internal/scenario"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
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

	sched     *serve.Scheduler
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
// all tables and ablations.
func (c *Context) Scheduler() *serve.Scheduler {
	if c.sched == nil {
		c.sched = serve.NewScheduler(serve.SchedulerOptions{
			Workers:       c.Workers,
			MaxMeshCycles: c.MaxMeshCycles,
		})
	}
	return c.sched
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
	cr, err := c.Scheduler().RunAll(context.Background(), cfg, c.Corpus())
	if err != nil {
		return nil, err
	}
	c.simResult[cfg.Name] = cr
	return cr, nil
}

// RunScenario sweeps a preset's selection of the corpus across every
// configuration — through Scheduler().RunAll, as SimResults, so "chapter7"
// stays byte-identical to the table path — and reports each
// configuration as a digest over its MethodRun encodings.
func (c *Context) RunScenario(p *scenario.Preset) (*scenario.Report, error) {
	methods, err := p.Select(c.Corpus(), nil)
	if err != nil {
		return nil, err
	}
	rep := &scenario.Report{Scenario: p.Name}
	for _, cfg := range sim.Configurations() {
		cr, err := c.Scheduler().RunAll(context.Background(), cfg, methods)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %s on %s: %w", p.Name, cfg.Name, err)
		}
		digest, err := scenario.DigestRuns(cr.Runs)
		if err != nil {
			return nil, err
		}
		rep.Configs = append(rep.Configs, scenario.ConfigDigest{
			Config: cfg.Name, Methods: len(cr.Runs),
			Skipped: cr.Skipped, TimedOut: cr.TimedOut, Digest: digest,
		})
	}
	return rep, nil
}

// Baseline returns the Baseline configuration's results.
func (c *Context) Baseline() (*sim.ConfigResults, error) {
	return c.SimResults(configNamed("Baseline"))
}

// configNamed returns the Table 15 configuration called name.
func configNamed(name string) sim.Config {
	for _, cfg := range sim.Configurations() {
		if cfg.Name == name {
			return cfg
		}
	}
	panic("experiments: no configuration " + name)
}
