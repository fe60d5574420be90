// Package dispatch shards simulation batches across multiple jfserved
// instances. A Dispatcher fronts N backends — remote peers spoken to over
// the /v1/run HTTP API, plus the in-process scheduler as a terminal
// fallback — behind the serve.BatchRunner interface serve.Scheduler
// implements too, so the HTTP surface, the bench driver and the experiment
// sweeps can switch between one node and many without changing shape.
//
// Routing is a consistent-hash ring keyed on the method signature: the
// same method always lands on the same node, keeping that node's
// deployment cache (and persistent store) hot for it, and adding a peer
// only moves the keys the new peer takes over. Jobs fan out concurrently
// with per-backend bounded inflight; a job that fails transiently (peer
// down, 5xx, network error) is retried once on the next node clockwise —
// but only while the failed backend's token-bucket retry budget has
// tokens, so a dead backend sees at most the bucket's refill rate of
// extra fleet pressure, not one retry per failed job. A job whose retry
// is denied (or whose retry also fails) runs on the local scheduler — so
// a sweep completes, with identical results, even with every peer
// unreachable. Results are merged in submission order, byte-identical to
// the single-node serial path.
//
// Backends that keep failing are suspended after failureThreshold
// consecutive errors; a suspended backend is skipped at routing time (its
// keys shift to the next node clockwise, nobody else's move) and probed
// with a real job on a decorrelated-jitter backoff schedule — delays grow
// exponentially on average while the jitter spreads probes out — so it
// rejoins once healthy without the fleet's probes synchronizing into a
// thundering herd.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/obs"
	"javaflow/internal/peer"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
)

// Defaults for Options fields left zero.
const (
	defaultInflight         = 8
	defaultFailureThreshold = 3
)

// Options configures a Dispatcher.
type Options struct {
	// Peers are the base URLs of remote jfserved instances (e.g.
	// "http://10.0.0.7:8077"). They must serve the same method and
	// configuration registry as this process.
	Peers []string
	// Client is the HTTP client for peer traffic (nil uses peer.NewClient
	// with per-host keep-alive sized to the inflight bound and a 5 min
	// time-to-first-header bound; pass one with a shorter bound to fail a
	// wedged peer sooner).
	Client *http.Client
	// Local is the in-process scheduler: the terminal fallback for jobs
	// whose remote attempts fail, and the source of the default mesh-cycle
	// bound. Required. When it has a persistent store, a job whose backend
	// failed transiently is served from that store if it already holds the
	// key — e.g. a record anti-entropy replication (internal/replicate)
	// pulled from the fleet, or one this node computed before: a warm
	// local serve is byte-identical to the dead backend's answer and skips
	// both the network and the engine.
	Local *serve.Scheduler
	// MaxInflight bounds concurrent jobs per backend (<=0 uses 8).
	MaxInflight int
	// FailureThreshold suspends a backend after this many consecutive
	// transient failures (<=0 uses 3).
	FailureThreshold int
	// Now and Rand are test seams for the probe schedule, the retry
	// budgets' refill and the probe jitter (nil uses time.Now and
	// math/rand). A suspended backend is probed with a real job no sooner
	// than the current backoff delay after its last failure; the delay
	// starts at admit.DefaultBackoffBase and grows (jittered, up to 3× per
	// step) toward admit.DefaultBackoffCap while failures continue, and
	// resets on success.
	Now  func() time.Time
	Rand func() float64
	// SyncedPeers, when set, lists the backend names (exactly as given in
	// Peers) whose segment logs this node's replicator has fully caught up
	// with. On a retry the dispatcher prefers the ring owner among these:
	// a peer actively exchanging segments holds the fleet's warm results
	// — including the dead backend's — so the retry is served from its
	// store instead of re-running the engine on a cold node.
	SyncedPeers func() []string
	// OnRecovery, when set, is called with a backend's name each time a
	// probe catches that suspended backend healthy again — the moment to
	// push it what it missed while it was down (jfserved passes
	// replicate.Replicator.PushTo). It runs on the probing job's goroutine
	// and must not block on the network.
	OnRecovery func(backend string)
	// Tracer records dispatch-attempt spans; pass the serving node's
	// serve.Metrics tracer so one /debug/traces dump covers ingress and
	// fan-out. Nil disables span recording.
	Tracer *obs.Tracer
	// Registry receives the dispatcher's counters and per-backend/outcome
	// attempt histograms. Nil leaves them unregistered (still counted in
	// Stats).
	Registry *obs.Registry
	// Journal receives routing state transitions (backend suspension and
	// recovery, retry-budget denials, local fallbacks) as structured
	// events; pass the serving node's serve.Metrics journal. Nil disables
	// event recording.
	Journal *obs.Journal
}

// backendState wraps a Backend with its routing health and accounting.
type backendState struct {
	b   Backend
	sem chan struct{} // bounded inflight

	// retryBudget bounds how often jobs failing here may be rerouted to
	// other nodes; probeBackoff schedules suspension probes; nextProbe is
	// the earliest unix-nano instant the next probe may fire.
	retryBudget  *admit.RetryBudget
	probeBackoff *admit.Backoff
	nextProbe    atomic.Int64

	jobs        atomic.Int64 // jobs this backend completed (incl. rejections)
	errs        atomic.Int64 // transient failures observed here
	retriedAway atomic.Int64 // jobs rerouted after failing here
	retryDenied atomic.Int64 // reroutes denied by the exhausted retry budget
	consecFails atomic.Int64 // current consecutive-failure streak
	probeSkips  atomic.Int64 // routing decisions that skipped this backend while suspended
}

// Dispatcher routes jobs across backends. It implements serve.BatchRunner
// and is safe for concurrent use.
type Dispatcher struct {
	backends []*backendState
	ring     *ring
	local    *serve.Scheduler
	localSem chan struct{}

	failureThreshold int64
	now              func() time.Time

	syncedPeers func() []string
	onRecovery  func(backend string)

	tracer      *obs.Tracer
	journal     *obs.Journal
	attemptHist *obs.HistogramVec // per backend × outcome, failures included

	localFallbacks atomic.Int64
	retries        atomic.Int64
	retryDenials   atomic.Int64
	warmLocalHits  atomic.Int64
	warmRetries    atomic.Int64
	ownerRecovers  atomic.Int64
	suspensions    atomic.Int64
}

var (
	_ serve.BatchRunner = (*Dispatcher)(nil)
	_ serve.Relayer     = (*Dispatcher)(nil)
)

// New builds a dispatcher over opts.Peers. Peer URLs are validated here;
// reachability is not — unreachable peers are discovered (and routed
// around) per job.
func New(opts Options) (*Dispatcher, error) {
	peers, err := peer.ParseList(opts.Peers)
	if err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	client := opts.Client
	if client == nil {
		inflight := opts.MaxInflight
		if inflight <= 0 {
			inflight = defaultInflight
		}
		client = peer.NewClient(inflight, remoteHeaderTimeout)
	}
	backends := make([]Backend, len(peers))
	for i, p := range peers {
		backends[i] = NewRemote(p, client)
	}
	return NewWithBackends(backends, opts)
}

// NewWithBackends is New with explicit backends — the seam failure-mode
// tests inject doubles through. Options.Peers is ignored.
func NewWithBackends(backends []Backend, opts Options) (*Dispatcher, error) {
	if opts.Local == nil {
		return nil, errors.New("dispatch: Options.Local scheduler is required")
	}
	inflight := opts.MaxInflight
	if inflight <= 0 {
		inflight = defaultInflight
	}
	threshold := opts.FailureThreshold
	if threshold <= 0 {
		threshold = defaultFailureThreshold
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	d := &Dispatcher{
		local:            opts.Local,
		localSem:         make(chan struct{}, opts.Local.Workers()),
		failureThreshold: int64(threshold),
		now:              now,
		syncedPeers:      opts.SyncedPeers,
		onRecovery:       opts.OnRecovery,
		tracer:           opts.Tracer,
		journal:          opts.Journal,
	}
	names := make([]string, len(backends))
	for i, b := range backends {
		names[i] = b.Name()
		d.backends = append(d.backends, &backendState{
			b:            b,
			sem:          make(chan struct{}, inflight),
			retryBudget:  admit.NewRetryBudget(admit.DefaultRetryBurst, admit.DefaultRetryRate, now),
			probeBackoff: admit.NewBackoff(admit.DefaultBackoffBase, admit.DefaultBackoffCap, opts.Rand),
		})
	}
	d.ring = newRing(names)
	d.register(opts.Registry)
	return d, nil
}

// register exposes the dispatcher's counters and attempt histograms in
// the node registry (no-op on a nil registry).
func (d *Dispatcher) register(reg *obs.Registry) {
	d.attemptHist = reg.NewHistogramVec("javaflow_dispatch_attempt_duration_seconds",
		"Dispatch attempt latency per backend, failures and fallbacks included.",
		"backend", "outcome")
	if reg == nil {
		return
	}
	reg.CounterFunc("javaflow_dispatch_retries_total", "Jobs that needed a second node.",
		func() float64 { return float64(d.retries.Load()) })
	reg.CounterFunc("javaflow_dispatch_retry_budget_denied_total", "Network retries denied by an exhausted per-backend retry budget.",
		func() float64 { return float64(d.retryDenials.Load()) })
	reg.CounterFunc("javaflow_dispatch_local_fallbacks_total", "Jobs that ended on the in-process scheduler.",
		func() float64 { return float64(d.localFallbacks.Load()) })
	reg.CounterFunc("javaflow_dispatch_suspensions_total", "Backends crossing the consecutive-failure threshold into suspension.",
		func() float64 { return float64(d.suspensions.Load()) })
	reg.CounterFunc("javaflow_dispatch_warm_local_hits_total", "Retries short-circuited by the local store.",
		func() float64 { return float64(d.warmLocalHits.Load()) })
	for _, bs := range d.backends {
		bs := bs
		reg.CounterFunc("javaflow_dispatch_backend_jobs_total", "Jobs completed per backend.",
			func() float64 { return float64(bs.jobs.Load()) }, "backend", bs.b.Name())
		reg.CounterFunc("javaflow_dispatch_backend_errors_total", "Transient failures per backend.",
			func() float64 { return float64(bs.errs.Load()) }, "backend", bs.b.Name())
	}
}

// suspended reports whether routing should skip backend i, with the probe
// escape hatch: once the backend's decorrelated-jitter backoff delay has
// elapsed since its last failure, exactly one routing decision (the CAS
// winner) sends a real job there, so a recovered peer rejoins without an
// external health checker and a still-dead one is probed on a decaying —
// never synchronized — cadence.
func (d *Dispatcher) suspended(i int) bool {
	bs := d.backends[i]
	if bs.consecFails.Load() < d.failureThreshold {
		return false
	}
	now := d.now().UnixNano()
	next := bs.nextProbe.Load()
	if now >= next && bs.nextProbe.CompareAndSwap(next, now+int64(bs.probeBackoff.Next())) {
		// This routing decision is the probe. If it fails, attempt()
		// pushes nextProbe further out; if it succeeds, the suspension
		// lifts and the backoff resets.
		return false
	}
	bs.probeSkips.Add(1)
	return true
}

// route picks the ring owner for sig, skipping exclude (-1 for none) and
// suspended backends. Returns -1 when no backend is available.
func (d *Dispatcher) route(sig string, exclude int) int {
	return d.ring.owner(sig, func(i int) bool {
		return i == exclude || d.suspended(i)
	})
}

// transient reports whether err should move the job to another node.
// Rejections are real results (the fabric refused the method — every node
// agrees), and cancellation is the caller's choice; everything else is a
// backend problem.
func transient(ctx context.Context, err error) bool {
	var le *fabric.LoadError
	if errors.As(err, &le) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// Terminal only when the caller itself gave up. The default
		// client's header timeout is a net timeout and stays transient
		// through the final return, but Options.Client may be any
		// *http.Client: net/http's Transport (ResponseHeaderTimeout) and
		// Client.Timeout return errors that match context.DeadlineExceeded,
		// and those are the peer's failure — with a live caller context
		// the job must be retried elsewhere.
		return ctx.Err() == nil
	}
	return true
}

// outcomeOf classifies an attempt result for histogram labels and span
// attributes. Every attempt lands in the histogram — failed and rejected
// ones included, so future load-adaptive routing sees failure latency.
func outcomeOf(ctx context.Context, err error) string {
	switch {
	case err == nil:
		return "ok"
	case !transient(ctx, err):
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return "canceled"
		}
		return "rejected"
	default:
		return "error"
	}
}

// attempt runs job on backend i under its inflight bound and updates that
// backend's health accounting. With relay set a Remote answers with the
// peer's checked 200 body instead of a decoded run. The attempt span and
// histogram cover the backend call only — inflight queueing is excluded so
// the numbers read as backend latency, not dispatcher congestion.
func (d *Dispatcher) attempt(ctx context.Context, i int, job serve.Job, maxCycles int, relay bool) (body []byte, run sim.MethodRun, err error) {
	bs := d.backends[i]
	select {
	case bs.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, run, ctx.Err()
	}
	defer func() { <-bs.sem }()

	ctx, span := d.tracer.StartSpan(ctx, "dispatch.attempt")
	span.SetAttr("backend", bs.b.Name())
	start := time.Now()
	if r, ok := bs.b.(*Remote); ok && relay {
		body, err = r.RunBody(ctx, job, maxCycles)
	} else {
		run, err = bs.b.Run(ctx, job, maxCycles)
	}
	outcome := outcomeOf(ctx, err)
	d.attemptHist.With(bs.b.Name(), outcome).Record(time.Since(start))
	span.SetAttr("outcome", outcome)
	if err != nil && transient(ctx, err) {
		span.End(err)
		bs.errs.Add(1)
		if bs.consecFails.Add(1) == d.failureThreshold {
			d.suspensions.Add(1)
			d.journal.Emit("dispatch", "suspension", obs.SevWarn, traceIDFrom(ctx),
				"backend", bs.b.Name(), "error", err.Error())
		}
		// Push the next probe out on the jittered schedule; while the
		// streak continues each failed probe lands further apart.
		bs.nextProbe.Store(d.now().UnixNano() + int64(bs.probeBackoff.Next()))
		return nil, run, err
	}
	span.End(nil)
	// Success — including a typed rejection, which proves the backend is
	// healthy enough to have tried the deploy.
	bs.jobs.Add(1)
	bs.probeBackoff.Reset()
	bs.nextProbe.Store(0)
	if bs.consecFails.Swap(0) >= d.failureThreshold {
		// This was the probe that caught a suspended backend recovering.
		// Tell the recovery hook now, so what the backend missed is pushed
		// over and its next ring-owned requests are warm instead of cold
		// engine runs.
		d.ownerRecovers.Add(1)
		d.journal.Emit("dispatch", "recovery", obs.SevInfo, traceIDFrom(ctx),
			"backend", bs.b.Name())
		if d.onRecovery != nil {
			d.onRecovery(bs.b.Name())
		}
	}
	return body, run, err
}

// runLocal executes job on the in-process scheduler under its own inflight
// bound (the scheduler's worker count), so a dispatcher-wide fallback
// storm cannot oversubscribe the local pool.
func (d *Dispatcher) runLocal(ctx context.Context, job serve.Job, maxCycles int) (sim.MethodRun, error) {
	select {
	case d.localSem <- struct{}{}:
	case <-ctx.Done():
		return sim.MethodRun{}, ctx.Err()
	}
	defer func() { <-d.localSem }()
	start := time.Now()
	run, err := d.local.RunMethodCycles(ctx, job.Config, job.Method, maxCycles)
	d.attemptHist.With("local", outcomeOf(ctx, err)).Record(time.Since(start))
	return run, err
}

// runJob is the per-job routing policy: ring owner, then — after a
// transient failure — a warm local serve if the local store already
// holds the key, one retry on a replication-synced peer (falling back to
// the next node clockwise), then the local scheduler. With relay set, a
// job a Remote answered comes back as the peer's body (attempt).
func (d *Dispatcher) runJob(ctx context.Context, job serve.Job, maxCycles int, relay bool) (body []byte, run sim.MethodRun, err error) {
	sig := job.Method.Signature()
	first := d.route(sig, -1)
	if first >= 0 {
		body, run, err = d.attempt(ctx, first, job, maxCycles, relay)
		if err == nil || !transient(ctx, err) {
			return body, run, err
		}
		d.retries.Add(1)
		d.backends[first].retriedAway.Add(1)
		// A dead backend's results are not lost to the fleet: replication
		// pulled its segments here, so a key the fleet ever computed is
		// served from the local store — byte-identical, no engine run.
		if st := d.local.Store(); st != nil && st.HasRun(store.RunKeyFor(job.Config, job.Method, maxCycles)) {
			d.warmLocalHits.Add(1)
			run, err = d.runLocal(ctx, job, maxCycles)
			return nil, run, err
		}
		// The network retry spends from the failed backend's token bucket:
		// with the budget exhausted the job goes straight to the local
		// fallback (same bytes, no retry amplification against the fleet).
		if !d.backends[first].retryBudget.Allow() {
			d.backends[first].retryDenied.Add(1)
			d.retryDenials.Add(1)
			d.journal.Emit("dispatch", "retry_denied", obs.SevWarn, traceIDFrom(ctx),
				"backend", d.backends[first].b.Name())
		} else if second := d.routeRetry(sig, first); second >= 0 {
			body, run, err = d.attempt(ctx, second, job, maxCycles, relay)
			if err == nil || !transient(ctx, err) {
				return body, run, err
			}
		}
	}
	d.localFallbacks.Add(1)
	if len(d.backends) > 0 {
		// Only notable when remotes exist: a dispatcher with no peers runs
		// everything locally by construction.
		d.journal.Emit("dispatch", "local_fallback", obs.SevInfo, traceIDFrom(ctx), "sig", sig)
	}
	run, err = d.runLocal(ctx, job, maxCycles)
	return nil, run, err
}

// traceIDFrom extracts the active trace ID for journal events ("" when
// the context carries no trace).
func traceIDFrom(ctx context.Context) string {
	tc, _ := obs.TraceFrom(ctx)
	return tc.TraceID
}

// routeRetry picks the second node for a job whose ring owner failed.
// With a SyncedPeers hook it prefers the ring owner among the peers whose
// stores replication has caught up with (they hold every warm result the
// fleet has, including the failed node's); otherwise — or when no synced
// peer is routable — it is the plain next-node-clockwise policy.
func (d *Dispatcher) routeRetry(sig string, exclude int) int {
	if d.syncedPeers != nil {
		synced := make(map[string]bool)
		for _, name := range d.syncedPeers() {
			synced[name] = true
		}
		if len(synced) > 0 {
			i := d.ring.owner(sig, func(i int) bool {
				return i == exclude || !synced[d.backends[i].b.Name()] || d.suspended(i)
			})
			if i >= 0 {
				d.warmRetries.Add(1)
				return i
			}
		}
	}
	return d.route(sig, exclude)
}

// maxCyclesOrDefault resolves the effective per-execution bound. Remotes
// are always sent an explicit bound — never 0 — so every backend simulates
// and store-keys the job identically to this node's default.
func (d *Dispatcher) maxCyclesOrDefault(maxCycles int) int {
	if maxCycles > 0 {
		return maxCycles
	}
	return d.local.MaxMeshCycles()
}

// RunMethodCycles routes one job on the caller's goroutine, as RelayRun
// does, and decodes whatever a Remote answered.
func (d *Dispatcher) RunMethodCycles(ctx context.Context, cfg sim.Config, m *classfile.Method, maxCycles int) (sim.MethodRun, error) {
	if err := ctx.Err(); err != nil {
		return sim.MethodRun{}, err
	}
	_, run, err := d.runJob(ctx, serve.Job{Config: cfg, Method: m}, d.maxCyclesOrDefault(maxCycles), false)
	return run, err
}

// RelayRun implements serve.Relayer: it routes one job as RunMethodCycles
// does, but a job a Remote answered comes back as that peer's 200 body —
// checked for shape, never decoded — for the /v1/run handler to write as it
// is. A job that ended on the local scheduler comes back as a run.
func (d *Dispatcher) RelayRun(ctx context.Context, cfg sim.Config, m *classfile.Method, maxCycles int) ([]byte, sim.MethodRun, error) {
	if err := ctx.Err(); err != nil {
		return nil, sim.MethodRun{}, err
	}
	return d.runJob(ctx, serve.Job{Config: cfg, Method: m}, d.maxCyclesOrDefault(maxCycles), true)
}

// RunBatchCycles dispatches jobs across the backends and returns one
// result per job in submission order, byte-identical to running the same
// batch on the local scheduler alone.
func (d *Dispatcher) RunBatchCycles(ctx context.Context, jobs []serve.Job, maxCycles int) []serve.JobResult {
	results := make([]serve.JobResult, len(jobs))
	d.RunBatchStream(ctx, len(jobs), func(i int) serve.Job { return jobs[i] }, maxCycles, func(i int, r serve.JobResult) { results[i] = r })
	return results
}

// workers sizes the fan-out pool to the fleet's aggregate capacity: every
// backend's inflight bound plus the local pool, so the dispatcher can
// saturate all backends at once without spawning a goroutine per job.
func (d *Dispatcher) workers() int {
	w := cap(d.localSem)
	for _, bs := range d.backends {
		w += cap(bs.sem)
	}
	return w
}

// RunBatchStream dispatches the n jobs job(0) … job(n-1) across the
// backends and delivers each result exactly once through emit, in
// submission order, as serve.FanOut does; it keeps no per-job slice.
func (d *Dispatcher) RunBatchStream(ctx context.Context, n int, job func(int) serve.Job, maxCycles int, emit func(i int, r serve.JobResult)) {
	maxCycles = d.maxCyclesOrDefault(maxCycles)
	serve.FanOut(ctx, n, job, d.workers(), emit, func(j serve.Job) (sim.MethodRun, error) {
		_, run, err := d.runJob(ctx, j, maxCycles, false)
		return run, err
	})
}

// BackendStats is one backend's slice of Stats.
type BackendStats struct {
	Name string `json:"name"`
	// Jobs counts jobs this backend completed, including typed rejections.
	Jobs int64 `json:"jobs"`
	// Errors counts transient failures observed on this backend.
	Errors int64 `json:"errors"`
	// RetriedAway counts jobs rerouted to another node after failing here.
	RetriedAway int64 `json:"retriedAway"`
	// RetryBudgetDenied counts reroutes this backend's exhausted token
	// bucket sent to the local fallback instead of another node.
	RetryBudgetDenied int64 `json:"retryBudgetDenied"`
	// RingShare is the fraction of the hash keyspace this backend owns.
	RingShare float64 `json:"ringShare"`
	// Suspended reports whether routing currently skips this backend.
	Suspended bool `json:"suspended"`
}

// Stats is the dispatcher's GET /metrics payload.
type Stats struct {
	Backends []BackendStats `json:"backends"`
	// VirtualNodes is the total ring-point count (replicas × backends).
	VirtualNodes int `json:"virtualNodes"`
	// Retries counts jobs that needed a second node.
	Retries int64 `json:"retries"`
	// RetryBudgetDenials counts network retries the per-backend token
	// buckets denied (those jobs fell back locally instead).
	RetryBudgetDenials int64 `json:"retryBudgetDenials"`
	// LocalFallbacks counts jobs that ended on the in-process scheduler.
	LocalFallbacks int64 `json:"localFallbacks"`
	// WarmLocalHits counts retries short-circuited by the local store
	// already holding the key (replicated or previously computed).
	WarmLocalHits int64 `json:"warmLocalHits"`
	// WarmRetries counts retries routed to a replication-synced peer in
	// preference to the plain next node clockwise.
	WarmRetries int64 `json:"warmRetries"`
	// OwnerRecoveries counts probes that caught a suspended backend
	// healthy again (each calls Options.OnRecovery when it is set).
	OwnerRecoveries int64 `json:"ownerRecoveries"`
	// Suspensions counts backends crossing the consecutive-failure
	// threshold into suspension (once per streak, not per skipped job).
	Suspensions int64 `json:"suspensions"`
}

// Stats snapshots the dispatcher's routing counters.
func (d *Dispatcher) Stats() Stats {
	shares := d.ring.shares()
	s := Stats{
		Backends:           make([]BackendStats, len(d.backends)),
		VirtualNodes:       len(d.ring.points),
		Retries:            d.retries.Load(),
		RetryBudgetDenials: d.retryDenials.Load(),
		LocalFallbacks:     d.localFallbacks.Load(),
		WarmLocalHits:      d.warmLocalHits.Load(),
		WarmRetries:        d.warmRetries.Load(),
		OwnerRecoveries:    d.ownerRecovers.Load(),
		Suspensions:        d.suspensions.Load(),
	}
	for i, bs := range d.backends {
		s.Backends[i] = BackendStats{
			Name:              bs.b.Name(),
			Jobs:              bs.jobs.Load(),
			Errors:            bs.errs.Load(),
			RetriedAway:       bs.retriedAway.Load(),
			RetryBudgetDenied: bs.retryDenied.Load(),
			RingShare:         shares[i],
			Suspended:         bs.consecFails.Load() >= d.failureThreshold,
		}
	}
	return s
}

// DispatchStats implements serve's metrics hook (serve.DispatchStatser),
// folding Stats into GET /metrics.
func (d *Dispatcher) DispatchStats() any { return d.Stats() }
