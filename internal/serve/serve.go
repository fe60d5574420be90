// Package serve turns the per-method JavaFlow simulator into a long-lived
// concurrent service. Three pieces compose:
//
//   - DeploymentCache: a sharded LRU keyed by (method signature, fabric
//     geometry) memoizing the verified fabric.Placement +
//     fabric.Resolution, so repeated runs — on any configuration sharing
//     the geometry — skip the Figure 20 / Figure 22 deploy pipeline
//     entirely;
//   - Scheduler: a bounded worker pool fanning batch submissions
//     (methods × configurations) across goroutines with context
//     cancellation and deterministic, submission-ordered results that are
//     byte-identical to the serial sim.Runner path;
//   - Service + Handler: a method/configuration registry and the
//     net/http API the jfserved daemon exposes (POST /v1/run,
//     POST /v1/batch, GET /v1/configs, GET /v1/methods, GET /metrics).
//
// An optional persistent result store (internal/store) sits beneath the
// scheduler, which reads completed MethodRuns through it and writes fresh
// ones behind, so a jfserved restart with the same -store-dir serves warm
// results without re-running the engine. Deployments stay in the cache:
// a restarted process recomputes the few it needs.
//
// cmd/jfserved serves the API; internal/experiments routes the Chapter-7
// table sweeps through the same Scheduler so batch and interactive traffic
// share one cache.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"javaflow/internal/admit"
	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/replicate"
	"javaflow/internal/scenario"
	"javaflow/internal/sim"
	"javaflow/internal/stats"
)

// NotFoundError reports something the node does not have — a registry
// lookup that failed (Kind and Name), or a resource this node runs
// without, such as a store or a replicator (Msg); the HTTP layer maps it
// to 404.
type NotFoundError struct {
	Kind string // "method", "config" or "scenario"
	Name string
	Msg  string // the whole message, when Kind/Name do not apply
}

func (e *NotFoundError) Error() string {
	if e.Msg != "" {
		return e.Msg
	}
	return fmt.Sprintf("serve: no %s %q", e.Kind, e.Name)
}

// BadRequestError reports a request the client must reshape (e.g. a
// scenario key combined with explicit sweep lists); the HTTP layer maps it
// to 400.
type BadRequestError struct {
	Msg string
}

func (e *BadRequestError) Error() string { return e.Msg }

// Service binds a scheduler to a fixed registry of configurations and a
// method population, resolving the name-based requests the HTTP API speaks
// into the scheduler's typed jobs.
type Service struct {
	sched        *Scheduler
	runner       BatchRunner
	replicator   *replicate.Replicator
	admission    *admit.Controller
	fleet        *Fleet
	scenarios    *scenario.Registry
	configs      []sim.Config
	configByName map[string]sim.Config
	methods      []*classfile.Method
	methodBySig  map[string]*classfile.Method
}

// NewService builds a service over the given registry. Configurations and
// methods keep their given order (the population order batch results are
// reported in); duplicate names keep the first occurrence.
func NewService(sched *Scheduler, configs []sim.Config, methods []*classfile.Method) *Service {
	s := &Service{
		sched:        sched,
		runner:       sched,
		configByName: make(map[string]sim.Config, len(configs)),
		methodBySig:  make(map[string]*classfile.Method, len(methods)),
	}
	for _, cfg := range configs {
		if _, ok := s.configByName[cfg.Name]; ok {
			continue
		}
		s.configByName[cfg.Name] = cfg
		s.configs = append(s.configs, cfg)
	}
	for _, m := range methods {
		sig := m.Signature()
		if _, ok := s.methodBySig[sig]; ok {
			continue
		}
		s.methodBySig[sig] = m
		s.methods = append(s.methods, m)
	}
	return s
}

// Scheduler exposes the underlying scheduler.
func (s *Service) Scheduler() *Scheduler { return s.sched }

// SetBatchRunner replaces the executor run and batch requests flow through.
// The default is the service's own scheduler; a dispatch front installs an
// internal/dispatch.Dispatcher here so the same HTTP surface shards jobs
// across remote jfserved instances. Call before serving traffic.
func (s *Service) SetBatchRunner(r BatchRunner) {
	if r == nil {
		r = s.sched
	}
	s.runner = r
}

// BatchRunner returns the executor requests flow through.
func (s *Service) BatchRunner() BatchRunner { return s.runner }

// SetReplicator attaches the anti-entropy replicator, enabling POST
// /v1/replicate/sync and the replication blocks of GET /metrics and GET
// /v1/store. The segment-export endpoints need only a store, not this.
// Call before serving traffic.
func (s *Service) SetReplicator(r *replicate.Replicator) { s.replicator = r }

// Replicator returns the attached replicator (nil when this node does not
// pull from peers).
func (s *Service) Replicator() *replicate.Replicator { return s.replicator }

// SetAdmission attaches the overload-protection controller: the HTTP
// layer then bounds run/batch/replicate admission per class, sheds
// expired-on-arrival work, and answers over-cap requests with typed 429 +
// Retry-After. Nil (the default) admits everything — embedded schedulers
// and single-node tests pay nothing. Call before serving traffic.
func (s *Service) SetAdmission(c *admit.Controller) { s.admission = c }

// Admission returns the attached controller (nil when unbounded).
func (s *Service) Admission() *admit.Controller { return s.admission }

// SetFleet attaches the fleet-observability peer set: GET /v1/trace
// and GET /v1/fleet then fan out to these peers instead of reporting
// this node alone. Nil (the default) keeps both endpoints working
// single-node. Call before serving traffic.
func (s *Service) SetFleet(f *Fleet) { s.fleet = f }

// Fleet returns the attached fleet peer set (nil when single-node).
func (s *Service) Fleet() *Fleet { return s.fleet }

// SetScenarios attaches the scenario registry, enabling GET /v1/scenarios
// and scenario-keyed batch submission. Call before serving traffic.
func (s *Service) SetScenarios(r *scenario.Registry) { s.scenarios = r }

// Scenarios returns the attached scenario registry (nil when the daemon was
// started without one).
func (s *Service) Scenarios() *scenario.Registry { return s.scenarios }

// Scenario resolves one bundle by name, mapping registry misses (and a
// missing registry) to the HTTP layer's 404 shape.
func (s *Service) Scenario(name string) (*scenario.Bundle, error) {
	if s.scenarios == nil {
		return nil, &NotFoundError{Kind: "scenario", Name: name}
	}
	b, err := s.scenarios.Get(name)
	if err != nil {
		return nil, &NotFoundError{Kind: "scenario", Name: name}
	}
	return b, nil
}

// Configs lists the registered configurations in registry order.
func (s *Service) Configs() []sim.Config { return s.configs }

// Methods lists the registered methods in registry order.
func (s *Service) Methods() []*classfile.Method { return s.methods }

// Config resolves a configuration by name.
func (s *Service) Config(name string) (sim.Config, error) {
	cfg, ok := s.configByName[name]
	if !ok {
		return sim.Config{}, &NotFoundError{Kind: "config", Name: name}
	}
	return cfg, nil
}

// Method resolves a method by signature.
func (s *Service) Method(sig string) (*classfile.Method, error) {
	m, ok := s.methodBySig[sig]
	if !ok {
		return nil, &NotFoundError{Kind: "method", Name: sig}
	}
	return m, nil
}

// RunPayload is the JSON shape of one method execution (both policies).
type RunPayload struct {
	Signature string     `json:"signature"`
	Config    string     `json:"config"`
	MeanIPC   float64    `json:"meanIPC"`
	BP1       sim.Result `json:"bp1"`
	BP2       sim.Result `json:"bp2"`
}

func payloadFor(cfgName string, run sim.MethodRun) RunPayload {
	return RunPayload{
		Signature: run.Signature,
		Config:    cfgName,
		MeanIPC:   run.MeanIPC(),
		BP1:       run.BP1,
		BP2:       run.BP2,
	}
}

// Run executes one (method, config) pair; maxCycles 0 keeps the scheduler
// default (DefaultMaxMeshCycles-derived) per-job bound. The job flows
// through the installed batch runner, so on a dispatch front even single
// runs land on the backend that owns the method's cache affinity.
func (s *Service) Run(ctx context.Context, configName, signature string, maxCycles int) (RunPayload, error) {
	return s.runOn(ctx, s.runner, configName, signature, maxCycles)
}

// RunLocal is Run pinned to the in-process scheduler, bypassing any
// installed dispatch runner. The HTTP layer routes requests carrying
// DispatchedHeader here: a job another front already routed must execute
// on this node, not ring-hop again.
func (s *Service) RunLocal(ctx context.Context, configName, signature string, maxCycles int) (RunPayload, error) {
	return s.runOn(ctx, s.sched, configName, signature, maxCycles)
}

func (s *Service) runOn(ctx context.Context, r BatchRunner, configName, signature string, maxCycles int) (RunPayload, error) {
	cfg, err := s.Config(configName)
	if err != nil {
		return RunPayload{}, err
	}
	m, err := s.Method(signature)
	if err != nil {
		return RunPayload{}, err
	}
	run, err := r.RunMethodCycles(ctx, cfg, m, maxCycles)
	if err != nil {
		return RunPayload{}, err
	}
	return payloadFor(cfg.Name, run), nil
}

// BatchRequest is the POST /v1/batch body: a population sweep over the
// cross product of the named configurations and methods. Empty lists mean
// "all registered".
type BatchRequest struct {
	Configs []string `json:"configs"`
	Methods []string `json:"methods"`
	// Scenario keys the sweep by a registered scenario bundle instead of
	// explicit config/method lists (which must then be empty): the bundle's
	// resolved workload and configurations become the sweep.
	Scenario string `json:"scenario,omitempty"`
	// MaxMeshCycles bounds each execution (0 = scheduler default, or the
	// scenario's resolved bound when Scenario is set).
	MaxMeshCycles int `json:"maxMeshCycles"`
	// SummaryOnly drops the per-run payloads from the response, keeping
	// only the aggregate rows (full sweeps are ~19k runs).
	SummaryOnly bool `json:"summaryOnly"`
}

// resolveScenario rewrites a scenario-keyed request into the explicit form:
// the bundle's configurations and method signatures, resolved against this
// node's registry. Methods outside the node's corpus are an error — the
// caller's scenario assumes a population this daemon does not serve.
func (s *Service) resolveScenario(req BatchRequest) (BatchRequest, error) {
	if req.Scenario == "" {
		return req, nil
	}
	if len(req.Configs) > 0 || len(req.Methods) > 0 {
		return req, &BadRequestError{Msg: fmt.Sprintf(
			"serve: batch request cannot combine scenario %q with explicit configs or methods", req.Scenario)}
	}
	if s.scenarios == nil {
		return req, &NotFoundError{Kind: "scenario", Name: req.Scenario}
	}
	resolved, err := s.scenarios.Resolve(req.Scenario)
	if err != nil {
		var nf *scenario.NotFoundError
		if errors.As(err, &nf) {
			return req, &NotFoundError{Kind: "scenario", Name: nf.Name}
		}
		return req, err
	}
	for _, cfg := range resolved.Configs {
		req.Configs = append(req.Configs, cfg.Name)
	}
	for _, m := range resolved.Methods {
		sig := m.Signature()
		if _, ok := s.methodBySig[sig]; !ok {
			return req, &BadRequestError{Msg: fmt.Sprintf(
				"serve: scenario %q method %s is not in this node's corpus (check -seed/-gen)", req.Scenario, sig)}
		}
		req.Methods = append(req.Methods, sig)
	}
	if req.MaxMeshCycles == 0 {
		req.MaxMeshCycles = resolved.MaxMeshCycles
	}
	return req, nil
}

// ConfigSummary aggregates one configuration's sweep the way the
// dissertation's Table 21 does.
type ConfigSummary struct {
	Config   string        `json:"config"`
	Methods  int           `json:"methods"`
	Skipped  int           `json:"skipped"`
	TimedOut int           `json:"timedOut"`
	IPC      stats.Summary `json:"ipc"`
}

// BatchConfigResult is one configuration's slice of a batch response.
type BatchConfigResult struct {
	Summary ConfigSummary `json:"summary"`
	Runs    []RunPayload  `json:"runs,omitempty"`
}

// BatchResponse is the POST /v1/batch reply, one entry per requested
// configuration in request order.
type BatchResponse struct {
	Results []BatchConfigResult `json:"results"`
}

// sweepJobs resolves a batch request into the flat submission-ordered job
// list (config-major, methods in registry order) shared by the buffered
// and streaming batch paths.
func (s *Service) sweepJobs(req BatchRequest) ([]sim.Config, []*classfile.Method, []Job, error) {
	configs, err := s.pickConfigs(req.Configs)
	if err != nil {
		return nil, nil, nil, err
	}
	methods, err := s.pickMethods(req.Methods)
	if err != nil {
		return nil, nil, nil, err
	}
	jobs := make([]Job, 0, len(configs)*len(methods))
	for _, cfg := range configs {
		for _, m := range methods {
			jobs = append(jobs, Job{Config: cfg, Method: m})
		}
	}
	return configs, methods, jobs, nil
}

// Batch executes a population sweep through the installed batch runner.
// Results are deterministic: per-configuration groups in request order,
// runs in method order, identical to running sim.Runner.RunAll per
// configuration — whether the jobs ran locally or were dispatched across
// remote backends.
func (s *Service) Batch(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	req, err := s.resolveScenario(req)
	if err != nil {
		return BatchResponse{}, err
	}
	configs, methods, jobs, err := s.sweepJobs(req)
	if err != nil {
		return BatchResponse{}, err
	}

	flat := s.runner.RunBatchCycles(ctx, jobs, req.MaxMeshCycles)
	resp := BatchResponse{Results: make([]BatchConfigResult, 0, len(configs))}
	for i, cfg := range configs {
		cr, err := CollectRuns(cfg, flat[i*len(methods):(i+1)*len(methods)])
		if err != nil {
			return BatchResponse{}, err
		}
		out := BatchConfigResult{Summary: ConfigSummary{
			Config:   cfg.Name,
			Methods:  len(cr.Runs),
			Skipped:  cr.Skipped,
			TimedOut: cr.TimedOut,
			IPC:      cr.IPCSummary(),
		}}
		if !req.SummaryOnly {
			out.Runs = make([]RunPayload, 0, len(cr.Runs))
			for _, run := range cr.Runs {
				out.Runs = append(out.Runs, payloadFor(cfg.Name, run))
			}
		}
		resp.Results = append(resp.Results, out)
	}
	return resp, nil
}

// StreamEvent is one NDJSON line of POST /v1/batch?stream=ndjson. Events
// arrive in submission order: for each requested configuration, one "run",
// "skip" or "timeout" event per method in registry order, then that
// configuration's "summary". A job that fails for any other reason (e.g.
// the batch's context is cancelled) produces an "error" event; the stream
// continues so later configurations still flow.
type StreamEvent struct {
	Type      string         `json:"type"` // run | skip | timeout | error | summary
	Config    string         `json:"config,omitempty"`
	Signature string         `json:"signature,omitempty"`
	Error     string         `json:"error,omitempty"`
	Run       *RunPayload    `json:"run,omitempty"`
	Summary   *ConfigSummary `json:"summary,omitempty"`
}

// BatchStream executes the same sweep as Batch but delivers per-job events
// through emit as jobs complete, in submission order, instead of buffering
// the full response. The "run" payloads and per-configuration summaries
// are identical to the buffered Batch response for the same request —
// streaming changes delivery, never content. An emit error (a client that
// went away) aborts the stream.
func (s *Service) BatchStream(ctx context.Context, req BatchRequest, emit func(StreamEvent) error) error {
	req, err := s.resolveScenario(req)
	if err != nil {
		return err
	}
	configs, methods, jobs, err := s.sweepJobs(req)
	if err != nil {
		return err
	}
	if len(methods) == 0 {
		return nil
	}

	var (
		emitErr  error
		cfgRuns  []sim.MethodRun
		skipped  int
		timedOut int
	)
	ctx, cancelJobs := context.WithCancel(ctx)
	defer cancelJobs()
	s.runner.RunBatchStream(ctx, jobs, req.MaxMeshCycles, func(i int, r JobResult) {
		if emitErr != nil {
			return
		}
		cfg := configs[i/len(methods)]
		ev := StreamEvent{Config: cfg.Name, Signature: r.Job.Method.Signature()}
		var le *fabric.LoadError
		switch {
		case errors.As(r.Err, &le):
			ev.Type = "skip"
			ev.Error = le.Error()
			skipped++
		case r.Err != nil:
			ev.Type = "error"
			ev.Error = r.Err.Error()
		case r.Run.BP1.TimedOut || r.Run.BP2.TimedOut:
			ev.Type = "timeout"
			timedOut++
		default:
			ev.Type = "run"
			payload := payloadFor(cfg.Name, r.Run)
			ev.Run = &payload
			cfgRuns = append(cfgRuns, r.Run)
		}
		if emitErr = emit(ev); emitErr != nil {
			// The client is gone: stop feeding the pool instead of
			// simulating the rest of the sweep for nobody.
			cancelJobs()
			return
		}
		if (i+1)%len(methods) == 0 {
			cr := &sim.ConfigResults{Config: cfg, Runs: cfgRuns, Skipped: skipped, TimedOut: timedOut}
			summary := ConfigSummary{
				Config:   cfg.Name,
				Methods:  len(cr.Runs),
				Skipped:  cr.Skipped,
				TimedOut: cr.TimedOut,
				IPC:      cr.IPCSummary(),
			}
			if emitErr = emit(StreamEvent{Type: "summary", Config: cfg.Name, Summary: &summary}); emitErr != nil {
				cancelJobs()
			}
			cfgRuns, skipped, timedOut = nil, 0, 0
		}
	})
	return emitErr
}

// pickConfigs resolves names to configurations (empty = all).
func (s *Service) pickConfigs(names []string) ([]sim.Config, error) {
	if len(names) == 0 {
		return s.configs, nil
	}
	out := make([]sim.Config, 0, len(names))
	for _, n := range names {
		cfg, err := s.Config(n)
		if err != nil {
			return nil, err
		}
		out = append(out, cfg)
	}
	return out, nil
}

// pickMethods resolves signatures to methods (empty = all).
func (s *Service) pickMethods(sigs []string) ([]*classfile.Method, error) {
	if len(sigs) == 0 {
		return s.methods, nil
	}
	out := make([]*classfile.Method, 0, len(sigs))
	for _, sig := range sigs {
		m, err := s.Method(sig)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// MethodInfo is the GET /v1/methods row.
type MethodInfo struct {
	Signature    string `json:"signature"`
	Instructions int    `json:"instructions"`
	MaxLocals    int    `json:"maxLocals"`
}

// MethodInfos lists the registry sorted by signature.
func (s *Service) MethodInfos() []MethodInfo {
	out := make([]MethodInfo, 0, len(s.methods))
	for _, m := range s.methods {
		out = append(out, MethodInfo{
			Signature:    m.Signature(),
			Instructions: len(m.Code),
			MaxLocals:    m.MaxLocals,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Signature < out[j].Signature })
	return out
}

// ScenarioInfo is the GET /v1/scenarios row: enough to pick a scenario
// without fetching the full bundle.
type ScenarioInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Suites      []string `json:"suites,omitempty"`
	Generated   bool     `json:"generated"`
	Configs     []string `json:"configs,omitempty"` // empty = all
}

// ScenarioInfos lists the registered scenarios in catalog order (empty
// when no registry is attached).
func (s *Service) ScenarioInfos() []ScenarioInfo {
	out := []ScenarioInfo{}
	if s.scenarios == nil {
		return out
	}
	for _, name := range s.scenarios.Names() {
		b, err := s.scenarios.Get(name)
		if err != nil {
			continue
		}
		out = append(out, ScenarioInfo{
			Name:        b.Name,
			Description: b.Description,
			Suites:      b.Workload.Suites,
			Generated:   b.Workload.Generated != nil,
			Configs:     b.Configs,
		})
	}
	return out
}

// ConfigInfo is the GET /v1/configs row.
type ConfigInfo struct {
	Name          string `json:"name"`
	Width         int    `json:"width"`
	SerialPerMesh int    `json:"serialPerMesh"`
	Collapsed     bool   `json:"collapsed"`
	Description   string `json:"description"`
}

// ConfigInfos lists the registered configurations in registry order.
func (s *Service) ConfigInfos() []ConfigInfo {
	out := make([]ConfigInfo, 0, len(s.configs))
	for _, cfg := range s.configs {
		info := ConfigInfo{
			Name:          cfg.Name,
			SerialPerMesh: cfg.SerialPerMesh,
			Description:   cfg.Description,
		}
		if cfg.Fabric != nil {
			info.Width = cfg.Fabric.Width
			info.Collapsed = cfg.Fabric.Collapsed
		}
		out = append(out, info)
	}
	return out
}
