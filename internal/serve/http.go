package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/fabric"
	"javaflow/internal/obs"
	"javaflow/internal/replicate"
	"javaflow/internal/store"
)

// maxBodyBytes bounds request bodies; batch requests listing the full
// population stay far below this.
const maxBodyBytes = 4 << 20

// DispatchedHeader marks a /v1/run request as already routed by a
// dispatch front. A node receiving it executes the job on its own
// scheduler instead of re-dispatching, so a fleet where every node lists
// the others (or itself) as peers terminates after one hop rather than
// recursing until the inflight semaphores deadlock.
const DispatchedHeader = "X-Javaflow-Dispatched"

// RunRequest is the POST /v1/run body.
type RunRequest struct {
	Config string `json:"config"`
	Method string `json:"method"`
	// MaxMeshCycles bounds the execution (0 = server default).
	MaxMeshCycles int `json:"maxMeshCycles"`
}

// Error kinds carried by ErrorPayload.Kind, so machine clients (the
// internal/dispatch HTTP backend) can classify failures without parsing
// message text.
const (
	ErrKindNotFound = "not_found"
	ErrKindRejected = "rejected"
	ErrKindCanceled = "canceled"
	ErrKindInternal = "internal"
	// ErrKindOverloaded marks a typed admission rejection (HTTP 429): the
	// class's queue is at cap and the Retry-After header says when to
	// come back. The work was never started.
	ErrKindOverloaded = "overloaded"
	// ErrKindDeadline marks an expired-on-arrival shed (HTTP 503): the
	// request's X-Javaflow-Deadline had already passed at ingress, so the
	// work was shed instead of executed for a caller that gave up.
	ErrKindDeadline = "deadline_exceeded"
)

// ErrorPayload is the JSON error envelope. For fabric rejections (Kind ==
// ErrKindRejected) Method and Reason carry the structured *fabric.LoadError
// fields, so a dispatch front can rehydrate the typed error a local run
// would have produced.
type ErrorPayload struct {
	Error  string `json:"error"`
	Kind   string `json:"kind,omitempty"`
	Method string `json:"method,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// Err converts the payload back into the error a local execution would
// have returned: a *fabric.LoadError for rejections, a plain error
// otherwise.
func (p ErrorPayload) Err() error {
	if p.Kind == ErrKindRejected {
		return &fabric.LoadError{Method: p.Method, Reason: p.Reason}
	}
	return errors.New(p.Error)
}

// NewHandler builds the jfserved HTTP API over svc.
//
//	POST /v1/run                     — one method on one configuration
//	POST /v1/batch                   — population sweep (methods × configs);
//	                                   ?stream=ndjson streams per-job results
//	GET  /v1/configs                 — configuration registry
//	GET  /v1/methods                 — method registry
//	GET  /v1/scenarios               — scenario catalog (list)
//	GET  /v1/scenarios/{name}        — one scenario (the list row)
//	GET  /v1/store                   — persistent-store admin report (+ replication)
//	POST /v1/store/compact           — fold the store's segments into one
//	GET  /v1/replicate/segments      — segment manifest for peer pullers
//	GET  /v1/replicate/segment/{seq} — raw segment frames (?from= resumes)
//	POST /v1/replicate/sync          — force one anti-entropy round now
//	POST /v1/replicate/notify        — gossip receiver: pull an advertised delta now
//	GET  /v1/trace/{traceID}         — cross-node assembled trace: fans out to the fleet peers
//	                                   and stitches every node's spans into one hop-ordered tree
//	GET  /v1/fleet                   — fleet health: every peer's /metrics merged into one document
//	GET  /metrics                    — service counters + cache/store/dispatch/replication stats;
//	                                   ?format=prometheus renders the full instrument registry
//	                                   in the Prometheus text exposition format
//	GET  /debug/traces               — recent + slowest spans from this node's trace ring (?n= caps each)
//	GET  /debug/traces/{traceID}     — this node's spans for one trace (the fan-out's local leg)
//	GET  /debug/events               — structured event journal (?subsystem=, ?severity=, ?n= filter)
//	GET  /healthz                    — liveness
//
// Every request runs under the trace middleware: an inbound
// X-Javaflow-Trace header joins its trace at the carried hop depth, any
// other request mints a fresh trace at hop 0, and the server span plus
// per-endpoint latency land in the node's tracer and histograms.
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	metrics := svc.Scheduler().Metrics()

	mux.HandleFunc("POST /v1/run", guard(svc, admit.ClassRun, func(w http.ResponseWriter, r *http.Request) {
		req, ok := readRunRequest(w, r)
		if !ok {
			return
		}
		body, err := svc.runBody(r.Context(), req, r.Header.Get(DispatchedHeader) != "")
		if err != nil {
			writeError(w, err)
			return
		}
		// An explicit length: net/http would send a body over 2 KiB
		// chunked, and ReadRunBody, relaying it, requires Content-Length.
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(body)))
		_, _ = w.Write(body) // the first Write sends the 200
	}))

	mux.HandleFunc("POST /v1/batch", guard(svc, admit.ClassBatch, func(w http.ResponseWriter, r *http.Request) {
		var req BatchRequest
		if !decodeJSON(w, r.Body, &req) {
			return
		}
		if r.URL.Query().Get("stream") == "ndjson" {
			streamBatch(w, r, svc, req)
			return
		}
		resp, err := svc.Batch(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}))

	mux.HandleFunc("GET /v1/configs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.ConfigInfos())
	})

	mux.HandleFunc("GET /v1/methods", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.MethodInfos())
	})

	mux.HandleFunc("GET /v1/scenarios", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.ScenarioInfos())
	})

	mux.HandleFunc("GET /v1/scenarios/{name}", func(w http.ResponseWriter, r *http.Request) {
		p, err := svc.preset(r.PathValue("name"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, scenarioInfo(p))
	})

	mux.HandleFunc("GET /v1/store", func(w http.ResponseWriter, r *http.Request) {
		st := requireStore(w, svc)
		if st == nil {
			return
		}
		rep := StoreReport{AdminReport: st.Admin()}
		if rp := svc.Replicator(); rp != nil {
			stats := rp.Stats()
			rep.Replication = &stats
		}
		writeJSON(w, http.StatusOK, rep)
	})

	// Replication surface. The two GETs export this node's segment log to
	// peer pullers and need only a store; the POST forces a pull round on
	// this node's own replicator (tests and ops use it to avoid waiting an
	// interval).
	mux.HandleFunc("GET /v1/replicate/segments", guard(svc, admit.ClassReplicate, func(w http.ResponseWriter, r *http.Request) {
		st := requireStore(w, svc)
		if st == nil {
			return
		}
		manifest, err := st.Manifest()
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, replicate.Manifest{Segments: manifest})
	}))

	mux.HandleFunc("GET /v1/replicate/segment/{seq}", guard(svc, admit.ClassReplicate, func(w http.ResponseWriter, r *http.Request) {
		st := requireStore(w, svc)
		if st == nil {
			return
		}
		seq, err := strconv.Atoi(r.PathValue("seq"))
		if err != nil || seq <= 0 {
			writeError(w, badRequestf("serve: bad segment seq %q", r.PathValue("seq")))
			return
		}
		var from int64
		if q := r.URL.Query().Get("from"); q != "" {
			from, err = strconv.ParseInt(q, 10, 64)
			if err != nil || from < 0 {
				writeError(w, badRequestf("serve: bad segment offset %q", q))
				return
			}
		}
		data, visible, err := st.ReadSegmentAt(seq, from)
		if err != nil {
			if os.IsNotExist(err) {
				err = &NotFoundError{Msg: fmt.Sprintf("serve: no segment %d", seq)}
			}
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Javaflow-Segment-Visible", strconv.FormatInt(visible, 10))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	}))

	mux.HandleFunc("POST /v1/replicate/sync", guard(svc, admit.ClassReplicate, func(w http.ResponseWriter, r *http.Request) {
		rp := svc.Replicator()
		if rp == nil {
			writeError(w, &NotFoundError{Msg: "serve: no replicator attached (start with -peers and -replicate-interval)"})
			return
		}
		if err := rp.SyncNow(r.Context()); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, rp.Stats())
	}))

	// Push receiver: a peer advertising segment positions this node has
	// not acknowledged yet. The handler pulls what it is behind on
	// synchronously — when the 200 goes out, this node has the data, and
	// the sender counts those positions as acknowledged. It never forwards
	// the notification: records reach further nodes because they land in
	// this node's own log, which it pushes in turn. 404 without a
	// gossip-enabled replicator, so senders account a node that does not
	// replicate as a failed send.
	mux.HandleFunc("POST /v1/replicate/notify", guard(svc, admit.ClassReplicate, func(w http.ResponseWriter, r *http.Request) {
		rp := svc.Replicator()
		if rp == nil || !rp.GossipEnabled() {
			writeError(w, &NotFoundError{Msg: "serve: gossip not enabled on this node (start with -peers and -replicate-interval)"})
			return
		}
		var n replicate.Notification
		if !decodeJSON(w, r.Body, &n) {
			return
		}
		out, err := rp.HandleNotify(r.Context(), n)
		if errors.Is(err, replicate.ErrBadNotification) {
			err = &BadRequestError{Msg: err.Error()}
		}
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, out)
	}))

	// Compaction is sole-writer-only (see store.Compact): in a shared
	// -store-dir fleet, quiesce the other instances before POSTing here,
	// or a segment another process is still appending to can be dropped
	// beyond the bytes this process saw at startup.
	mux.HandleFunc("POST /v1/store/compact", func(w http.ResponseWriter, r *http.Request) {
		st := requireStore(w, svc)
		if st == nil {
			return
		}
		if err := st.Compact(); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st.Admin())
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prometheus" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			metrics.Registry().WritePrometheus(w)
			return
		}
		writeJSON(w, http.StatusOK, svc.snapshotFull())
	})

	// Fleet health: every peer's /metrics JSON fetched concurrently and
	// merged into one document — per-node up/down plus fleet-wide
	// counters and losslessly merged latency percentiles.
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.FleetSnapshot(r.Context()))
	})

	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		n, err := queryCount(r, "span")
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, metrics.Tracer().Dump(n))
	})

	// Local trace lookup: this node's spans for one trace, the leg the
	// /v1/trace fan-out queries on every peer.
	mux.HandleFunc("GET /debug/traces/{traceID}", func(w http.ResponseWriter, r *http.Request) {
		id, err := traceIDParam(r)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, localSpans(metrics, id))
	})

	// Cross-node trace assembly: fan out to every fleet peer's local
	// lookup and stitch the spans into one hop-ordered tree. Dead peers
	// mark the result partial; the endpoint still answers 200.
	mux.HandleFunc("GET /v1/trace/{traceID}", func(w http.ResponseWriter, r *http.Request) {
		id, err := traceIDParam(r)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, svc.AssembleTrace(r.Context(), id))
	})

	// Structured event journal: newest-first typed state transitions.
	// ?subsystem= keeps one subsystem, ?severity= sets the floor
	// (info|warn|error), ?n= caps the count.
	mux.HandleFunc("GET /debug/events", func(w http.ResponseWriter, r *http.Request) {
		n, err := queryCount(r, "event")
		if err != nil {
			writeError(w, err)
			return
		}
		minSev := obs.SevInfo
		if q := r.URL.Query().Get("severity"); q != "" {
			sev, ok := obs.ParseSeverity(q)
			if !ok {
				writeError(w, badRequestf("serve: bad severity %q (want info, warn or error)", q))
				return
			}
			minSev = sev
		}
		writeJSON(w, http.StatusOK, metrics.Journal().Dump(r.URL.Query().Get("subsystem"), minSev, n))
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	return instrument(metrics, mux)
}

// guard is the overload-protection wrapper for one admission class. It
// runs before the handler does any work:
//
//  1. An inbound X-Javaflow-Deadline already in the past sheds the
//     request — typed 503 ErrKindDeadline with Retry-After — instead of
//     executing for a caller that gave up. A live deadline tightens the
//     request context so the scheduler and any dispatch hop inherit it.
//  2. The admission controller claims a slot in the class's lane; at
//     cap the request gets a typed 429 ErrKindOverloaded with
//     Retry-After and is never executed. The slot is released when the
//     handler returns, which is what files the service time the
//     Retry-After estimate feeds on.
//
// With no controller attached only the deadline leg applies: admission
// on a nil controller is a no-op.
func guard(svc *Service, class admit.Class, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ac := svc.Admission()
		now := time.Now()
		if dl, ok := admit.FromRequest(r, now); ok {
			if !dl.After(now) {
				ac.RecordShed(class)
				writeShed(w, ac.RetryAfter(class), r.Header.Get(admit.DeadlineHeader))
				return
			}
			ctx, cancel := admit.WithDeadline(r.Context(), dl)
			defer cancel()
			r = r.WithContext(ctx)
		}
		release, err := ac.Admit(class)
		if err != nil {
			writeError(w, err)
			return
		}
		defer release()
		next(w, r)
	}
}

// writeShed answers an expired-on-arrival request: the same Retry-After
// guidance a 429 carries, under the deadline_exceeded kind, so a client
// can distinguish "you were too slow" from "we are too busy".
func writeShed(w http.ResponseWriter, retryAfter time.Duration, wire string) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
	writeJSON(w, http.StatusServiceUnavailable, ErrorPayload{
		Error: fmt.Sprintf("serve: deadline %s already expired at ingress; shed without executing", wire),
		Kind:  ErrKindDeadline,
	})
}

// retryAfterSeconds renders a duration for the Retry-After header:
// whole seconds, rounded up, never zero.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// StoreReport is the GET /v1/store payload: the store's admin report
// plus, on a replicating node, the per-peer cursor/sync state.
type StoreReport struct {
	store.AdminReport
	Replication *replicate.Stats `json:"replication,omitempty"`
}

// DispatchStatser is implemented by batch runners that front multiple
// backends (internal/dispatch.Dispatcher); GET /metrics folds their stats
// into the snapshot. The return type is any so serve does not import the
// dispatch layer built on top of it.
type DispatchStatser interface {
	DispatchStats() any
}

// streamBatch serves POST /v1/batch?stream=ndjson: one StreamEvent per
// line, flushed as each job completes, in submission order. The 200 is
// committed lazily at the first event, so request-shape errors (unknown
// names — the only failures that precede job execution) still get a
// normal JSON error status, while mid-sweep failures arrive as "error"
// events on the stream.
func streamBatch(w http.ResponseWriter, r *http.Request, svc *Service, req BatchRequest) {
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	committed := false
	err := svc.BatchStream(r.Context(), req, func(ev StreamEvent) error {
		if !committed {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			committed = true
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil && !committed {
		writeError(w, err)
	}
}

// instrument is the observability middleware: it counts the request,
// adopts an inbound X-Javaflow-Trace context (or lets StartSpan mint a
// fresh trace at hop 0), records a server span named after the endpoint,
// and files the latency in the per-endpoint histogram.
func instrument(m *Metrics, next *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.RecordRequest()
		// The label is the mux pattern that will serve the request — one
		// constant per route, e.g. "GET /v1/scenarios/{name}" — or "<METHOD>
		// other" when unrouted, so hostile paths cannot mint label values.
		_, endpoint := next.Handler(r)
		if endpoint == "" {
			endpoint = r.Method + " other"
		}
		ctx := r.Context()
		if tc, ok := obs.ParseTrace(r.Header.Get(obs.TraceHeader)); ok {
			ctx = obs.ContextWithTrace(ctx, tc)
		}
		ctx, span := m.Tracer().StartSpan(ctx, endpoint)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		m.RecordHTTP(endpoint, time.Since(start))
		span.SetAttr("status", strconv.Itoa(sw.status))
		var err error
		if sw.status >= 500 {
			err = fmt.Errorf("http %d", sw.status)
		}
		span.End(err)
	})
}

// statusWriter captures the response status for the server span. It must
// keep forwarding Flush or NDJSON batch streaming stalls behind buffers.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// badRequestf builds the error writeError answers with a 400.
func badRequestf(format string, args ...any) error {
	return &BadRequestError{Msg: fmt.Sprintf(format, args...)}
}

// requireStore returns the node's persistent store, or answers 404 and
// returns nil when the node runs memory-only.
func requireStore(w http.ResponseWriter, svc *Service) *store.Store {
	st := svc.Scheduler().Store()
	if st == nil {
		writeError(w, &NotFoundError{Msg: "serve: no persistent store attached (start with -store-dir)"})
	}
	return st
}

// queryCount parses the ?n= cap of a debug listing of what ("span",
// "event"): 64 when absent, 1..4096 otherwise.
func queryCount(r *http.Request, what string) (int, error) {
	q := r.URL.Query().Get("n")
	if q == "" {
		return 64, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n <= 0 || n > 4096 {
		return 0, badRequestf("serve: bad %s count %q", what, q)
	}
	return n, nil
}

// traceIDParam returns the {traceID} path value, rejecting anything that
// is not a well-formed trace ID.
func traceIDParam(r *http.Request) (string, error) {
	id := r.PathValue("traceID")
	if !obs.ValidTraceID(id) {
		return "", badRequestf("serve: bad trace id %q", id)
	}
	return id, nil
}

// maxRunRequestRead bounds the POST /v1/run bodies readRunRequest reads
// itself; a canonical one is under 200 bytes.
const maxRunRequestRead = 512

// readRunRequest reads a POST /v1/run body. One of known length up to 512
// bytes in a canonical form (parseRunRequest) is decoded without
// reflection. Any other body goes to decodeJSON over the same bytes — those
// already read, then the rest — so what is accepted, and every 400 answered,
// is decodeJSON's.
func readRunRequest(w http.ResponseWriter, r *http.Request) (RunRequest, bool) {
	body := r.Body
	if n := r.ContentLength; n >= 0 && n <= maxRunRequestRead {
		buf := make([]byte, n)
		k, err := io.ReadFull(r.Body, buf)
		if err == nil {
			if req, ok := parseRunRequest(buf); ok {
				return req, true
			}
		}
		body = struct {
			io.Reader
			io.Closer
		}{io.MultiReader(bytes.NewReader(buf[:k]), r.Body), r.Body}
	}
	var req RunRequest
	ok := decodeJSON(w, body, &req)
	return req, ok
}

// decodeJSON parses a request body into v, replying 400 on malformed input.
func decodeJSON(w http.ResponseWriter, body io.ReadCloser, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, badRequestf("bad request body: %v", err))
		return false
	}
	return true
}

// writeError maps service errors to HTTP statuses: unknown names are 404,
// malformed request shapes 400, fabric-rejected methods 422, cancelled
// requests 499-style 503, anything else 500. The payload carries a machine-readable kind (and, for
// rejections, the structured LoadError fields) so dispatch fronts can
// rehydrate typed errors.
func writeError(w http.ResponseWriter, err error) {
	var nf *NotFoundError
	var br *BadRequestError
	var le *fabric.LoadError
	var oe *admit.OverloadError
	switch {
	case errors.As(err, &nf):
		writeJSON(w, http.StatusNotFound, ErrorPayload{Error: nf.Error(), Kind: ErrKindNotFound})
	case errors.As(err, &br):
		writeJSON(w, http.StatusBadRequest, ErrorPayload{Error: br.Error(), Kind: ErrKindInternal})
	case errors.As(err, &le):
		writeJSON(w, http.StatusUnprocessableEntity, ErrorPayload{
			Error: le.Error(), Kind: ErrKindRejected, Method: le.Method, Reason: le.Reason,
		})
	case errors.As(err, &oe):
		w.Header().Set("Retry-After", strconv.Itoa(oe.RetryAfterSeconds()))
		writeJSON(w, http.StatusTooManyRequests, ErrorPayload{Error: oe.Error(), Kind: ErrKindOverloaded})
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusServiceUnavailable, ErrorPayload{Error: err.Error(), Kind: ErrKindDeadline})
	case errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusServiceUnavailable, ErrorPayload{Error: err.Error(), Kind: ErrKindCanceled})
	default:
		writeJSON(w, http.StatusInternalServerError, ErrorPayload{Error: err.Error(), Kind: ErrKindInternal})
	}
}

// writeJSON encodes v with the standard headers.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
