package serve

import (
	"maps"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/obs"
	"javaflow/internal/replicate"
	"javaflow/internal/sim"
	"javaflow/internal/store"
)

// slowestWindowDur is how long a slowest-job exemplar stays current: the
// reported trace ID is the slowest sample of the last one-to-two
// windows, so a stale outlier from hours ago never masquerades as the
// reason today's p99 looks bad.
const slowestWindowDur = time.Minute

// Metrics tracks service-level counters: request and job volume, cache
// effectiveness, in-flight work, and job-latency percentiles from a
// log-bucketed histogram (no sample window — recording is atomic adds and
// quantiles are exact bucket bounds). Every Metrics owns the process
// Registry (histograms), Tracer and Journal the rest of the node records
// into, so one GET /metrics?format=prometheus scrape, one GET
// /debug/traces dump and one GET /debug/events render cover every
// subsystem wired to this scheduler. All methods are safe for concurrent
// use.
type Metrics struct {
	requests  atomic.Int64 // HTTP requests served
	jobs      atomic.Int64 // simulation jobs completed
	jobErrors atomic.Int64 // jobs that returned an error (incl. skips)
	inFlight  atomic.Int64 // jobs currently executing

	start time.Time // rate base for the engine throughput gauges
	node  string    // this node's fleet name (advertise URL or "")
	build BuildInfo

	reg         *obs.Registry
	tracer      *obs.Tracer
	journal     *obs.Journal
	jobLatency  *obs.Histogram    // all jobs, warm and cold
	httpLatency *obs.HistogramVec // per-endpoint request latency
	slowest     slowestWindow     // slowest-job trace exemplar
}

// MetricsOptions configures a Metrics collector. The zero value is
// valid: an anonymous node.
type MetricsOptions struct {
	// Node names this node in fleet-facing output (events, assembled
	// traces, /v1/fleet rows) — jfserved passes its advertise URL.
	Node string
}

// NewMetrics returns a metrics collector with default options.
func NewMetrics() *Metrics { return NewMetricsOpts(MetricsOptions{}) }

// NewMetricsOpts returns a metrics collector with its registry
// holding the job and HTTP latency histograms; the trace and event rings
// hold obs's default 512 entries.
func NewMetricsOpts(opts MetricsOptions) *Metrics {
	m := &Metrics{
		start: time.Now(),
		node:  opts.Node,
		build: BuildInfo{
			GoVersion:     runtime.Version(),
			EngineVersion: sim.EngineVersion,
			ModuleVersion: moduleVersion(),
		},
		reg:     obs.NewRegistry(),
		tracer:  obs.NewTracer(0),
		journal: obs.NewJournal(opts.Node, 0),
	}
	m.slowest.win = slowestWindowDur
	m.jobLatency = m.reg.NewHistogram("javaflow_job_duration_seconds",
		"Simulation job latency, warm cache hits and cold engine runs alike.")
	m.httpLatency = m.reg.NewHistogramVec("javaflow_http_request_duration_seconds",
		"HTTP request latency by endpoint.", "endpoint")
	return m
}

// moduleVersion reports the main module's version from the build info
// ("(devel)" for plain go-build trees, "unknown" without build info).
func moduleVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// Registry is the node-wide histogram registry; subsystems wired to this
// scheduler (dispatch, replicate, admit) register into it at startup.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Tracer records this node's spans; dispatch and replicate share it so
// one /debug/traces dump shows every hop the node participated in.
func (m *Metrics) Tracer() *obs.Tracer { return m.tracer }

// Journal is this node's structured event ring; every subsystem emits
// state transitions into it so one /debug/events render shows them all.
func (m *Metrics) Journal() *obs.Journal { return m.journal }

// Node reports this node's fleet name ("" when anonymous).
func (m *Metrics) Node() string { return m.node }

// RecordRequest counts one HTTP request.
func (m *Metrics) RecordRequest() { m.requests.Add(1) }

// RecordHTTP files one request's latency under its endpoint label.
func (m *Metrics) RecordHTTP(endpoint string, d time.Duration) {
	m.httpLatency.With(endpoint).Record(d)
}

// JobStarted marks a simulation job in flight and returns its start time.
func (m *Metrics) JobStarted() time.Time {
	m.inFlight.Add(1)
	return time.Now()
}

// JobFinished completes the accounting JobStarted opened. traceID, when
// non-empty, feeds the slowest-job exemplar so a bad percentile links
// straight to an assembled trace.
func (m *Metrics) JobFinished(start time.Time, traceID string, err error) {
	m.inFlight.Add(-1)
	m.jobs.Add(1)
	if err != nil {
		m.jobErrors.Add(1)
	}
	d := time.Since(start)
	m.jobLatency.Record(d)
	m.slowest.record(d, traceID)
}

// slowSample is one slowest-job candidate.
type slowSample struct {
	traceID string
	ns      int64
}

// slowestWindow keeps the slowest job sample over a two-bucket rotating
// window: the current window plus the previous one, so the exemplar
// never goes blank at a window boundary yet ages out within two
// windows. O(1) under a short mutex, per the obs invariant.
type slowestWindow struct {
	mu       sync.Mutex
	win      time.Duration
	curStart time.Time
	cur      slowSample
	prev     slowSample
}

func (w *slowestWindow) record(d time.Duration, traceID string) {
	if traceID == "" {
		return
	}
	ns := d.Nanoseconds()
	w.mu.Lock()
	w.rotate(time.Now())
	if ns > w.cur.ns || w.cur.traceID == "" {
		w.cur = slowSample{traceID: traceID, ns: ns}
	}
	w.mu.Unlock()
}

// slowestTraceID reports the trace of the slowest sample in the live
// windows ("" when no traced job ran recently).
func (w *slowestWindow) slowestTraceID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate(time.Now())
	if w.prev.ns > w.cur.ns {
		return w.prev.traceID
	}
	return w.cur.traceID
}

// rotate advances the window buckets; callers hold mu.
func (w *slowestWindow) rotate(now time.Time) {
	if w.curStart.IsZero() {
		w.curStart = now
		return
	}
	age := now.Sub(w.curStart)
	switch {
	case age >= 2*w.win:
		// Idle across both buckets: everything is stale.
		w.cur, w.prev = slowSample{}, slowSample{}
		w.curStart = now
	case age >= w.win:
		w.prev = w.cur
		w.cur = slowSample{}
		w.curStart = w.curStart.Add(w.win)
	}
}

// EngineThroughput is the engine-core block of /metrics: the
// process-wide totals of the event-driven simulation core plus derived
// rates over the service's uptime. CyclesSkipped over SimulatedMeshCycles
// is the fraction of simulated time the core fast-forwarded instead of
// ticking; Delivered over Events the fraction of simulated events it had
// to dequeue.
type EngineThroughput struct {
	sim.EngineTotals
	MeshCyclesPerSec float64 `json:"meshCyclesPerSec" prom:"javaflow_engine_mesh_cycles_per_second,gauge" help:"Simulated mesh cycles per second of uptime."`
	EventsPerSec     float64 `json:"eventsPerSec"`
}

// BuildInfo is javaflow_build_info's label set.
type BuildInfo struct {
	GoVersion     string `json:"goVersion" prom:",label=go_version"`
	EngineVersion int    `json:"engineVersion" prom:",label=engine_version"`
	ModuleVersion string `json:"moduleVersion" prom:",label=module_version"`
}

// EventKindCount is one journal (subsystem, kind) pair's lifetime count.
type EventKindCount struct {
	Subsystem string `json:"subsystem" prom:",label=subsystem"`
	Kind      string `json:"kind" prom:",label=kind"`
	Count     uint64 `json:"count" prom:"javaflow_events_total,counter" help:"Structured journal events by subsystem and kind."`
}

// MetricsSnapshot is the JSON shape of GET /metrics, and the declaration
// of the node's counters and gauges: obs.WriteSnapshot renders its
// prom-tagged fields as the Prometheus exposition. Store is nil when the
// service runs memory-only (no -store-dir).
type MetricsSnapshot struct {
	Node         string  `json:"node,omitempty"`
	Requests     int64   `json:"requests" prom:"javaflow_http_requests_total,counter" help:"HTTP requests served."`
	Jobs         int64   `json:"jobs" prom:"javaflow_jobs_total,counter" help:"Simulation jobs completed."`
	JobErrors    int64   `json:"jobErrors" prom:"javaflow_job_errors_total,counter" help:"Simulation jobs that returned an error."`
	InFlight     int64   `json:"inFlight" prom:"javaflow_jobs_inflight,gauge" help:"Simulation jobs currently executing."`
	P50LatencyMS float64 `json:"p50LatencyMs"`
	P95LatencyMS float64 `json:"p95LatencyMs"`
	P99LatencyMS float64 `json:"p99LatencyMs"`
	// SlowestTraceID is the trace of the slowest recent job — the
	// exemplar that links a bad p99 straight to GET /v1/trace/{id}.
	SlowestTraceID string `json:"slowestTraceId,omitempty"`
	// JobLatency is the raw job-latency bucket snapshot. GET /v1/fleet
	// merges these across nodes losslessly (all histograms share
	// boundaries), which averaged percentiles cannot do.
	JobLatency *obs.HistogramSnapshot `json:"jobLatency,omitempty"`
	Events     uint64                 `json:"events,omitempty"`
	Cache      CacheStats             `json:"cache"`
	Engine     EngineThroughput       `json:"engine"`
	Store      *store.Stats           `json:"store,omitempty"`
	// Dispatch carries the multi-node dispatcher's per-backend and ring
	// stats when the service fronts remote peers (dispatch.Stats; typed as
	// any because the dispatch layer builds on serve, not the reverse).
	Dispatch any `json:"dispatch,omitempty"`
	// Replication carries the anti-entropy replicator's per-peer cursor
	// and sync state when this node pulls warm results from peers.
	Replication *replicate.Stats `json:"replication,omitempty"`
	// Admission carries the overload-protection controller's per-class
	// queue depths, caps and rejection counters when admission is bounded.
	Admission *admit.Stats `json:"admission,omitempty"`
	Spans     int64        `json:"spans" prom:"javaflow_trace_spans_total,counter" help:"Trace spans finished on this node."`
	Build     BuildInfo    `json:"build" prom:"javaflow_build_info,gauge" help:"Build metadata as labels; the value is always 1."`
	// Runtime is read only for GET /metrics, which pays its
	// runtime.ReadMemStats.
	Runtime *obs.RuntimeStats `json:"runtime,omitempty"`
	// EventKinds counts every journal kind ever emitted, sorted; the
	// counters survive ring wraparound.
	EventKinds []EventKindCount `json:"eventKinds,omitempty"`
}

// Snapshot captures the current counters plus the given cache's and
// store's stats (either may be nil). Latency percentiles come straight
// from the job histogram's buckets — no copy, no sort.
func (m *Metrics) Snapshot(cache *DeploymentCache, st *store.Store) MetricsSnapshot {
	lat := m.jobLatency.Snapshot()
	snap := MetricsSnapshot{
		Node:           m.node,
		Requests:       m.requests.Load(),
		Jobs:           m.jobs.Load(),
		JobErrors:      m.jobErrors.Load(),
		InFlight:       m.inFlight.Load(),
		P50LatencyMS:   float64(lat.Quantile(0.50)) / float64(time.Millisecond),
		P95LatencyMS:   float64(lat.Quantile(0.95)) / float64(time.Millisecond),
		P99LatencyMS:   float64(lat.Quantile(0.99)) / float64(time.Millisecond),
		SlowestTraceID: m.slowest.slowestTraceID(),
		JobLatency:     &lat,
		Events:         m.journal.EventCount(),
		Engine:         m.engineThroughput(),
		Spans:          m.tracer.SpanCount(),
		Build:          m.build,
	}
	counts := m.journal.CountsByKind()
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		subsystem, kind, _ := strings.Cut(k, "/")
		snap.EventKinds = append(snap.EventKinds, EventKindCount{subsystem, kind, counts[k]})
	}
	if cache != nil {
		snap.Cache = cache.Stats()
	}
	if st != nil {
		stats := st.Stats()
		snap.Store = &stats
	}
	return snap
}

// engineThroughput derives the engine gauges from the process-wide sim
// totals and this collector's uptime.
func (m *Metrics) engineThroughput() EngineThroughput {
	et := EngineThroughput{EngineTotals: sim.TotalEngineStats()}
	if secs := time.Since(m.start).Seconds(); secs > 0 {
		et.MeshCyclesPerSec = float64(et.SimulatedMeshCycles) / secs
		et.EventsPerSec = float64(et.Events) / secs
	}
	return et
}
