package experiments

import (
	"context"
	"fmt"

	"javaflow/internal/scenario"
	"javaflow/internal/serve"
)

// RunScenario sweeps a resolved scenario bundle: the resolved methods ×
// configurations run through the context's BatchRunner — the exact code
// path SimResults uses, so catalog entries stay byte-identical to the
// legacy hard-coded sweeps — and each configuration is reported as a digest
// over its MethodRun encodings.
func (c *Context) RunScenario(res *scenario.Resolved) (*scenario.Report, error) {
	b := res.Bundle
	rep := &scenario.Report{Scenario: b.Name}
	if len(res.Methods) == 0 {
		return rep, nil
	}
	runner, err := c.BatchRunner()
	if err != nil {
		return nil, err
	}
	jobs := make([]serve.Job, len(res.Methods))
	for _, cfg := range res.Configs {
		for i, m := range res.Methods {
			jobs[i] = serve.Job{Config: cfg, Method: m}
		}
		results := runner.RunBatchCycles(context.Background(), jobs, res.MaxMeshCycles)
		cr, err := serve.CollectRuns(cfg, results)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %s on %s: %w", b.Name, cfg.Name, err)
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
