// Package obs is the fleet's observability substrate: request-scoped
// distributed tracing, a structured event journal, log-bucketed latency
// histograms, and a Prometheus text-exposition registry that every
// subsystem registers its instruments into instead of hand-rolling
// snapshot structs.
//
// Tracing is propagation-first: a TraceContext (trace ID, span ID, hop
// depth) is minted at ingress, carried through contexts inside a process,
// and crosses processes in the X-Javaflow-Trace header — dispatch /v1/run
// hops, replication segment pulls, and gossip notifications all inject it
// — so one request's spans can be reconstructed across the fleet from
// each node's bounded in-memory ring (GET /debug/traces). SpansFor scans
// that ring for one trace and AssembleTrace stitches per-node span sets
// into one hop-ordered tree, which is how GET /v1/trace/{traceID} shows
// a shed/reroute/warm-hit decision chain end to end. The Journal records
// typed state transitions (suspensions, sheds, gossip heals,
// compactions) into the same kind of ring: one atomic add claims a slot,
// the writer fills it in place, and attributes stay a fixed list of four
// pairs until read. Histograms are fixed log-spaced buckets updated with
// three atomic adds, cheap enough for every job, request, dispatch
// attempt and replication round, and their snapshots merge losslessly
// across nodes.
//
// Load-bearing invariant: observation never perturbs the observed system.
// Every instrument is wait-free or O(1) under a short mutex, recording
// costs nanoseconds (CI-pinned under 100ns per histogram record and per
// journal emit), buffers are bounded (span and event rings, fixed bucket
// counts), and a nil Tracer, Journal, Registry, Histogram or
// HistogramVec is a valid no-op — instrumented code never branches on
// "is observability wired".
package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
)

// TraceHeader carries a TraceContext across process boundaries. The value
// is "<traceID>-<spanID>-<hop>": two 16-hex-digit IDs and the decimal hop
// depth (how many wire crossings the request has made; ingress at the
// originating node is hop 0).
const TraceHeader = "X-Javaflow-Trace"

// TraceContext identifies the active span of one distributed request.
type TraceContext struct {
	// TraceID names the whole request tree, identical on every hop.
	TraceID string
	// SpanID names the current span; a child span records it as parent.
	SpanID string
	// Hop is the wire-crossing depth: 0 at the node the request entered
	// the fleet on, incremented each time the context is sent to a peer.
	Hop int
}

// Header renders the X-Javaflow-Trace wire value.
func (tc TraceContext) Header() string {
	return tc.TraceID + "-" + tc.SpanID + "-" + strconv.Itoa(tc.Hop)
}

// ParseTrace parses an X-Javaflow-Trace value. Malformed input (wrong
// field count, bad IDs, negative or absurd hop) reports ok=false and the
// receiver simply starts a fresh trace — a hostile header can never be
// more than a no-op.
func ParseTrace(s string) (TraceContext, bool) {
	if s == "" {
		return TraceContext{}, false
	}
	parts := strings.Split(s, "-")
	if len(parts) != 3 || !validID(parts[0]) || !validID(parts[1]) {
		return TraceContext{}, false
	}
	hop, err := strconv.Atoi(parts[2])
	if err != nil || hop < 0 || hop > 64 {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: parts[0], SpanID: parts[1], Hop: hop}, true
}

// ValidTraceID reports whether s is a well-formed trace (or span) ID —
// the HTTP layer vets /v1/trace/{traceID} path values with it before
// fanning them out to peers.
func ValidTraceID(s string) bool { return validID(s) }

// validID accepts non-empty lowercase-hex IDs up to 32 digits.
func validID(s string) bool {
	if len(s) == 0 || len(s) > 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NewID mints a random 16-hex-digit trace or span ID.
func NewID() string { return formatID(rand.Uint64()) }

// formatID renders v as fmt's %016x does, without fmt's cost: every span
// mints an ID.
func formatID(v uint64) string {
	var raw [8]byte
	var out [16]byte
	binary.BigEndian.PutUint64(raw[:], v)
	hex.Encode(out[:], raw[:])
	return string(out[:])
}

type traceCtxKey struct{}

// ContextWithTrace attaches tc to ctx; spans started under the returned
// context become children of tc's span.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFrom extracts the active trace context, if any.
func TraceFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}

// Inject stamps req with ctx's trace context at hop+1 — one wire crossing
// deeper. No-op when ctx carries no trace, so uninstrumented callers cost
// nothing.
func Inject(req *http.Request, ctx context.Context) {
	if tc, ok := TraceFrom(ctx); ok {
		req.Header.Set(TraceHeader, TraceContext{
			TraceID: tc.TraceID, SpanID: tc.SpanID, Hop: tc.Hop + 1,
		}.Header())
	}
}
