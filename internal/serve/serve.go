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
	scenarios    []scenario.Preset
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

// SetScenarios attaches the scenario presets, enabling GET /v1/scenarios
// and scenario-keyed batch submission. Call before serving traffic.
func (s *Service) SetScenarios(presets []scenario.Preset) { s.scenarios = presets }

// preset returns the attached preset called name, or the HTTP layer's 404
// shape.
func (s *Service) preset(name string) (*scenario.Preset, error) {
	for i := range s.scenarios {
		if s.scenarios[i].Name == name {
			return &s.scenarios[i], nil
		}
	}
	return nil, &NotFoundError{Kind: "scenario", Name: name}
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

// A Relayer is a BatchRunner whose single-job path can answer with the
// POST /v1/run 200 body the node that ran the job rendered
// (internal/dispatch.Dispatcher, when a remote backend ran it). By the
// byte-identity invariant those bytes are this node's answer too, so the
// handler writes them as they are. A nil body with a nil error means the
// job ran in this process; run is then the result to render.
type Relayer interface {
	RelayRun(ctx context.Context, cfg sim.Config, m *classfile.Method, maxCycles int) (body []byte, run sim.MethodRun, err error)
}

// runBody executes one POST /v1/run request and returns its 200 body;
// MaxMeshCycles 0 keeps the scheduler default. The job flows through the
// installed batch runner, so on a dispatch front even single runs land on
// the backend that owns the method's cache affinity — unless local pins it
// to the in-process scheduler, as for a request another front already
// routed (DispatchedHeader), which must not ring-hop again.
func (s *Service) runBody(ctx context.Context, req RunRequest, local bool) ([]byte, error) {
	cfg, m, err := s.job(req.Config, req.Method)
	if err != nil {
		return nil, err
	}
	runner := s.runner
	if local {
		runner = s.sched
	}
	var run sim.MethodRun
	if rl, ok := runner.(Relayer); ok {
		var body []byte
		if body, run, err = rl.RelayRun(ctx, cfg, m, req.MaxMeshCycles); body != nil || err != nil {
			return body, err
		}
	} else if run, err = runner.RunMethodCycles(ctx, cfg, m, req.MaxMeshCycles); err != nil {
		return nil, err
	}
	return appendRunPayload(make([]byte, 0, 1024), payloadFor(cfg.Name, run)), nil
}

// RunLocal executes one (method, config) pair on the in-process scheduler,
// bypassing any installed dispatch runner; maxCycles 0 keeps the scheduler
// default.
func (s *Service) RunLocal(ctx context.Context, configName, signature string, maxCycles int) (RunPayload, error) {
	cfg, m, err := s.job(configName, signature)
	if err != nil {
		return RunPayload{}, err
	}
	run, err := s.sched.RunMethodCycles(ctx, cfg, m, maxCycles)
	if err != nil {
		return RunPayload{}, err
	}
	return payloadFor(cfg.Name, run), nil
}

// job resolves a configuration name and a method signature.
func (s *Service) job(configName, signature string) (sim.Config, *classfile.Method, error) {
	cfg, err := s.Config(configName)
	if err != nil {
		return sim.Config{}, nil, err
	}
	m, err := s.Method(signature)
	return cfg, m, err
}

// BatchRequest is the POST /v1/batch body: a population sweep over the
// cross product of the named configurations and methods. Empty lists mean
// "all registered".
type BatchRequest struct {
	Configs []string `json:"configs"`
	Methods []string `json:"methods"`
	// Scenario keys the sweep by a scenario preset instead of explicit
	// config/method lists (which must then be empty): the preset's
	// selection of this node's methods, on every configuration, becomes
	// the sweep.
	Scenario string `json:"scenario,omitempty"`
	// MaxMeshCycles bounds each execution (0 = scheduler default).
	MaxMeshCycles int `json:"maxMeshCycles"`
	// SummaryOnly drops the per-run payloads from the response, keeping
	// only the aggregate rows (full sweeps are ~19k runs).
	SummaryOnly bool `json:"summaryOnly"`
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
	var preset *scenario.Preset
	if req.Scenario != "" {
		if len(req.Configs) > 0 || len(req.Methods) > 0 {
			return nil, nil, nil, &BadRequestError{Msg: fmt.Sprintf(
				"serve: batch request cannot combine scenario %q with explicit configs or methods", req.Scenario)}
		}
		p, err := s.preset(req.Scenario)
		if err != nil {
			return nil, nil, nil, err
		}
		preset = p
	}
	configs, err := s.pickConfigs(req.Configs)
	if err != nil {
		return nil, nil, nil, err
	}
	var methods []*classfile.Method
	if preset != nil {
		methods, err = preset.Select(s.methods, s.methodBySig)
	} else {
		methods, err = s.pickMethods(req.Methods)
	}
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
// remote backends. A job that fails other than by fabric rejection fails
// the batch with the error sim.Runner.RunAll reports, and cancels the jobs
// still to run.
func (s *Service) Batch(ctx context.Context, req BatchRequest) (BatchResponse, error) {
	resp := BatchResponse{Results: []BatchConfigResult{}} // "results":[] for a node without configurations
	err := s.sweep(ctx, req, !req.SummaryOnly,
		func(kind string, r JobResult, _ RunPayload) error {
			if kind == "error" {
				return fmt.Errorf("sim: %s: %w", r.Job.Method.Signature(), r.Err)
			}
			return nil
		},
		func(res BatchConfigResult) error {
			resp.Results = append(resp.Results, res)
			return nil
		})
	if err != nil {
		return BatchResponse{}, err
	}
	return resp, nil
}

// sweep runs req's jobs through the installed batch runner and folds each
// configuration's results as they arrive, in submission order — the one
// fold behind Batch and BatchStream. job sees every result with its kind
// ("run", "skip", "timeout" or "error") and, for a run, its payload;
// config receives each configuration's summary once its last method is in
// — also for a sweep that selects no methods — with the configuration's
// payloads when keepRuns is set. The fold keeps the counts and the runs'
// mean IPC values, in method order, so the summary is the one
// sim.ConfigResults.IPCSummary computes over the same runs. A callback's
// error cancels the jobs still to run and is returned.
func (s *Service) sweep(ctx context.Context, req BatchRequest, keepRuns bool,
	job func(kind string, r JobResult, run RunPayload) error,
	config func(BatchConfigResult) error) error {
	configs, methods, jobs, err := s.sweepJobs(req)
	if err != nil {
		return err
	}
	ctx, cancelJobs := context.WithCancel(ctx)
	defer cancelJobs()
	var (
		failed            error
		skipped, timedOut int
		ipcs              []float64
		runs              []RunPayload
	)
	closeConfig := func(cfg sim.Config) {
		sum := ConfigSummary{Config: cfg.Name, Methods: len(ipcs), Skipped: skipped, TimedOut: timedOut, IPC: stats.Summarize(ipcs)}
		if failed = config(BatchConfigResult{Summary: sum, Runs: runs}); failed != nil {
			cancelJobs()
		}
		skipped, timedOut, ipcs, runs = 0, 0, ipcs[:0], nil
	}
	s.runner.RunBatchStream(ctx, jobs, req.MaxMeshCycles, func(i int, r JobResult) {
		if failed != nil {
			return
		}
		cfg := configs[i/len(methods)]
		var (
			kind string
			run  RunPayload
		)
		switch {
		case r.Err != nil && rejection(r.Err) != nil:
			kind = "skip"
			skipped++
		case r.Err != nil:
			kind = "error"
		case r.Run.BP1.TimedOut || r.Run.BP2.TimedOut:
			kind = "timeout"
			timedOut++
		default:
			kind = "run"
			run = payloadFor(cfg.Name, r.Run)
			ipcs = append(ipcs, run.MeanIPC)
			if keepRuns {
				runs = append(runs, run)
			}
		}
		if failed = job(kind, r, run); failed != nil {
			cancelJobs()
			return
		}
		if (i+1)%len(methods) == 0 {
			closeConfig(cfg)
		}
	})
	if len(methods) == 0 {
		// No job ends a configuration: each still gets its empty summary.
		for _, cfg := range configs {
			if failed == nil {
				closeConfig(cfg)
			}
		}
	}
	return failed
}

// rejection returns the fabric's refusal to host a job's method, or nil
// when err is some other failure.
func rejection(err error) *fabric.LoadError {
	var le *fabric.LoadError
	errors.As(err, &le)
	return le
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
	return s.sweep(ctx, req, false,
		func(kind string, r JobResult, run RunPayload) error {
			ev := StreamEvent{Type: kind, Config: r.Job.Config.Name, Signature: r.Job.Method.Signature()}
			switch kind {
			case "run":
				ev.Run = &run
			case "skip":
				ev.Error = rejection(r.Err).Error()
			case "error":
				ev.Error = r.Err.Error()
			}
			return emit(ev)
		},
		func(res BatchConfigResult) error {
			return emit(StreamEvent{Type: "summary", Config: res.Summary.Config, Summary: &res.Summary})
		})
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

// ScenarioInfo is the GET /v1/scenarios row and the GET
// /v1/scenarios/{name} body.
type ScenarioInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Suites      []string `json:"suites,omitempty"`
	Generated   bool     `json:"generated"`
}

func scenarioInfo(p *scenario.Preset) ScenarioInfo {
	return ScenarioInfo{Name: p.Name, Description: p.Description, Suites: p.Suites, Generated: p.Generated}
}

// ScenarioInfos lists the attached presets in catalog order (empty when
// none are attached).
func (s *Service) ScenarioInfos() []ScenarioInfo {
	out := make([]ScenarioInfo, 0, len(s.scenarios))
	for i := range s.scenarios {
		out = append(out, scenarioInfo(&s.scenarios[i]))
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
