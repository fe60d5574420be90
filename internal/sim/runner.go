package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/stats"
)

// MethodRun bundles both branch-policy executions of one method on one
// configuration ("Each method was executed twice with different branch
// characteristics").
type MethodRun struct {
	Signature string
	BP1, BP2  Result
}

// MeanIPC averages the two policies' IPC.
func (mr MethodRun) MeanIPC() float64 {
	return (mr.BP1.IPC() + mr.BP2.IPC()) / 2
}

// Runner executes a method population across configurations.
type Runner struct {
	// MaxMeshCycles overrides the per-execution timeout (0 = default).
	MaxMeshCycles int
	// Resolve overrides the deploy pipeline (verification, greedy load,
	// address resolution — Figures 20 and 22). Nil runs the pipeline from
	// scratch on every call; a deployment cache plugs in here to amortize
	// repeated runs of the same method on the same configuration.
	Resolve func(cfg Config, m *classfile.Method) (*fabric.Resolution, error)
	// Ctx, when non-nil, is polled by the engine every few thousand mesh
	// cycles so a single multimillion-cycle execution aborts mid-run on
	// cancellation (returning ctx.Err()) rather than only between jobs.
	Ctx context.Context
}

// resolve runs the configured deploy pipeline.
func (r *Runner) resolve(cfg Config, m *classfile.Method) (*fabric.Resolution, error) {
	if r.Resolve != nil {
		return r.Resolve(cfg, m)
	}
	return DeployMethod(cfg, m)
}

// DeployMethod is the uncached deploy pipeline: verification, greedy load
// into the fabric, and address resolution. Methods the fabric cannot host
// return a *fabric.LoadError.
func DeployMethod(cfg Config, m *classfile.Method) (*fabric.Resolution, error) {
	loader := &fabric.Loader{Fabric: cfg.Fabric}
	placement, err := loader.Load(m)
	if err != nil {
		return nil, err
	}
	return fabric.Resolve(placement)
}

// RunMethod executes one method under one configuration with both branch
// policies. Methods the fabric cannot host return a *fabric.LoadError.
func (r *Runner) RunMethod(cfg Config, m *classfile.Method) (MethodRun, error) {
	res, err := r.resolve(cfg, m)
	if err != nil {
		return MethodRun{}, err
	}
	return r.RunResolved(cfg, res)
}

// enginePool recycles engines between jobs so a sweep stops paying for
// node arrays, queue buckets and distance tables per run. Unbounded on
// purpose: sync.Pool's GC behaviour is the bound.
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// releaseEngine pools e after dropping every reference it must not pin —
// the deployment (LRU-evictable upstream) and the request context —
// keeping only the engine's own buffers.
func releaseEngine(e *Engine) {
	e.cfg, e.placement, e.resolution, e.meta, e.preemptCtx = Config{}, nil, nil, nil, nil
	enginePool.Put(e)
}

// RunResolved executes an already-deployed method (both branch policies) —
// the post-cache half of RunMethod. Results are identical to RunMethod's:
// the engine never mutates the resolution, so one deployment can back any
// number of executions, including concurrent ones. A method that never
// consults the branch policy runs once: BP2's Result is BP1's, and the
// process totals account the simulation BP2 would have repeated (not the
// engine run it did not need).
func (r *Runner) RunResolved(cfg Config, res *fabric.Resolution) (MethodRun, error) {
	eng := enginePool.Get().(*Engine)
	defer releaseEngine(eng)
	out := MethodRun{Signature: res.Placement.Method.Signature()}
	var err error
	if out.BP1, err = r.runPolicy(eng, cfg, res, BP1); err != nil {
		return MethodRun{}, err
	}
	if metaFor(res.Placement.Method).policyInvariant {
		out.BP2 = out.BP1
		out.BP2.Policy = BP2
		eng.foldSimulated()
		engineTotals.shared.Add(1)
		return out, nil
	}
	if out.BP2, err = r.runPolicy(eng, cfg, res, BP2); err != nil {
		return MethodRun{}, err
	}
	return out, nil
}

// runPolicy resets eng for one branch policy and runs it.
func (r *Runner) runPolicy(eng *Engine, cfg Config, res *fabric.Resolution, policy BranchPolicy) (Result, error) {
	eng.Reset(cfg, res, policy)
	if r.MaxMeshCycles > 0 {
		eng.SetMaxCycles(r.MaxMeshCycles)
	}
	if r.Ctx != nil {
		eng.SetPreempt(r.Ctx)
	}
	result, err := eng.Run()
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", cfg.Name, err)
	}
	result.Policy = policy
	return result, nil
}

// ConfigResults is the population outcome for one configuration.
type ConfigResults struct {
	Config Config
	Runs   []MethodRun
	// Skipped counts methods the fabric rejected (switch/jsr methods).
	Skipped int
	// TimedOut counts methods filtered for not reaching a Return.
	TimedOut int
}

// RunAll executes the population on one configuration, filtering timeouts
// exactly as the dissertation did ("these methods have been filtered from
// the results").
func (r *Runner) RunAll(cfg Config, methods []*classfile.Method) (*ConfigResults, error) {
	out := &ConfigResults{Config: cfg}
	for _, m := range methods {
		run, err := r.RunMethod(cfg, m)
		if err != nil {
			var le *fabric.LoadError
			if errors.As(err, &le) {
				out.Skipped++
				continue
			}
			return nil, fmt.Errorf("sim: %s: %w", m.Signature(), err)
		}
		if run.BP1.TimedOut || run.BP2.TimedOut {
			out.TimedOut++
			continue
		}
		out.Runs = append(out.Runs, run)
	}
	return out, nil
}

// IPCs extracts the per-method mean IPC series.
func (cr *ConfigResults) IPCs() []float64 {
	out := make([]float64, len(cr.Runs))
	for i, run := range cr.Runs {
		out[i] = run.MeanIPC()
	}
	return out
}

// IPCSummary summarizes raw IPC (Table 21 rows).
func (cr *ConfigResults) IPCSummary() stats.Summary {
	return stats.Summarize(cr.IPCs())
}

// FigureOfMerit compares per-method IPC against the baseline run of the
// same population: each method's IPC is normalized to its own Baseline IPC
// and the normalized values are averaged (Section 7.3, Measurements:
// "Figure of Merits are calculated for each method and then shown").
type FigureOfMerit struct {
	Mean   float64
	StdDev float64
	N      int
}

// FoMAgainst computes the Figure of Merit of cr relative to baseline.
// Methods present in only one result set are ignored.
func (cr *ConfigResults) FoMAgainst(baseline *ConfigResults) FigureOfMerit {
	base := make(map[string]float64, len(baseline.Runs))
	for _, run := range baseline.Runs {
		base[run.Signature] = run.MeanIPC()
	}
	var ratios []float64
	for _, run := range cr.Runs {
		b, ok := base[run.Signature]
		if !ok || b == 0 {
			continue
		}
		ratios = append(ratios, run.MeanIPC()/b)
	}
	return FigureOfMerit{
		Mean:   stats.Mean(ratios),
		StdDev: stats.StdDev(ratios),
		N:      len(ratios),
	}
}

// PerMethodFoM returns signature → IPC ratio vs baseline (Tables 27–28).
func (cr *ConfigResults) PerMethodFoM(baseline *ConfigResults) map[string]float64 {
	base := make(map[string]float64, len(baseline.Runs))
	for _, run := range baseline.Runs {
		base[run.Signature] = run.MeanIPC()
	}
	out := make(map[string]float64, len(cr.Runs))
	for _, run := range cr.Runs {
		if b, ok := base[run.Signature]; ok && b > 0 {
			out[run.Signature] = run.MeanIPC() / b
		}
	}
	return out
}

// CoverageSummary averages coverage per policy (Table 18).
func (cr *ConfigResults) CoverageSummary() (bp1, bp2 float64) {
	var c1, c2 []float64
	for _, run := range cr.Runs {
		c1 = append(c1, run.BP1.Coverage())
		c2 = append(c2, run.BP2.Coverage())
	}
	return stats.Mean(c1), stats.Mean(c2)
}

// ParallelismMean averages the fraction of mesh cycles with >=2 executing
// instructions (Table 26).
func (cr *ConfigResults) ParallelismMean() float64 {
	var ps []float64
	for _, run := range cr.Runs {
		ps = append(ps, run.BP1.Parallelism(), run.BP2.Parallelism())
	}
	return stats.Mean(ps)
}

// RatioSummary summarizes instructions-to-max-node over the population
// (Tables 19–20).
func (cr *ConfigResults) RatioSummary() stats.Summary {
	var rs []float64
	for _, run := range cr.Runs {
		if run.BP1.Static > 0 {
			rs = append(rs, float64(run.BP1.MaxNode)/float64(run.BP1.Static))
		}
	}
	return stats.Summarize(rs)
}

// FilterRuns selects runs by a static-size predicate (Table 16's filters).
func (cr *ConfigResults) FilterRuns(keep func(MethodRun) bool) *ConfigResults {
	out := &ConfigResults{Config: cr.Config, Skipped: cr.Skipped, TimedOut: cr.TimedOut}
	for _, run := range cr.Runs {
		if keep(run) {
			out.Runs = append(out.Runs, run)
		}
	}
	return out
}
