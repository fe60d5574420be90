package obs

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// slowestSpans bounds the separately-kept slowest-span list.
const slowestSpans = 32

// Span is one finished unit of work inside a trace. JSON field names are
// the /debug/traces wire format.
type Span struct {
	TraceID    string            `json:"traceId"`
	SpanID     string            `json:"spanId"`
	ParentID   string            `json:"parentId,omitempty"`
	Name       string            `json:"name"`
	Hop        int               `json:"hop"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	StartNanos int64             `json:"startUnixNano"`
	DurationNS int64             `json:"durationNs"`
	Error      string            `json:"error,omitempty"`
}

// spanRec is one span as the ring holds it, rendered to a Span only on
// read.
type spanRec struct {
	traceID, spanID, parentID, name string
	hop                             int
	start, dur                      int64 // start in Unix nanoseconds, dur in nanoseconds
	err                             string
	attrs                           attrList
}

// wire renders the span in the /debug/traces wire format.
func (r *spanRec) wire() Span {
	return Span{TraceID: r.traceID, SpanID: r.spanID, ParentID: r.parentID, Name: r.name, Hop: r.hop,
		Attrs: r.attrs.wire(), StartNanos: r.start, DurationNS: r.dur, Error: r.err}
}

// Tracer records finished spans into the shared bounded ring plus a
// slowest-N list. It is a diagnostic buffer, not a durable log: spans
// wrap out of the ring oldest first. A nil *Tracer is a valid no-op
// tracer.
type Tracer struct {
	ring ring[spanRec]

	// slowest is kept sorted descending by duration, ≤ slowestSpans.
	// floor is the duration a span must beat to enter it (-1 while it
	// has room), so a span that cannot make the list never takes slowMu.
	slowMu  sync.Mutex
	slowest []spanRec
	floor   atomic.Int64
}

// NewTracer builds a tracer whose recent-span ring holds cap spans
// (cap <= 0 selects the default of 512).
func NewTracer(capSpans int) *Tracer {
	t := &Tracer{ring: newRing[spanRec](capSpans), slowest: make([]spanRec, 0, slowestSpans)}
	t.floor.Store(-1)
	return t
}

// ActiveSpan is an in-flight span, held by value; End finishes it into
// the tracer. The zero ActiveSpan, which a nil tracer starts, is a valid
// no-op.
type ActiveSpan struct {
	t     *Tracer
	rec   spanRec
	start time.Time
}

// StartSpan begins a span named name. If ctx already carries a trace
// context the span joins that trace as a child at the same hop depth;
// otherwise a fresh trace is minted at hop 0. The returned context
// carries the new span's context so children and Inject see it.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, ActiveSpan) {
	if t == nil {
		return ctx, ActiveSpan{}
	}
	s := ActiveSpan{t: t, start: time.Now()}
	s.rec.name, s.rec.spanID, s.rec.start = name, NewID(), s.start.UnixNano()
	if tc, ok := TraceFrom(ctx); ok {
		s.rec.traceID, s.rec.parentID, s.rec.hop = tc.TraceID, tc.SpanID, tc.Hop
	} else {
		s.rec.traceID = NewID()
	}
	return ContextWithTrace(ctx, s.Context()), s
}

// SetAttr attaches a key/value attribute to the span, replacing an
// earlier value of the same key; at most 4 keys are kept.
func (s *ActiveSpan) SetAttr(key, value string) { s.rec.attrs.set(key, value) }

// Context reports the span's trace context (for manual propagation).
func (s *ActiveSpan) Context() TraceContext {
	return TraceContext{TraceID: s.rec.traceID, SpanID: s.rec.spanID, Hop: s.rec.hop}
}

// End finishes the span, recording err's text as the error kind when
// non-nil, and files it into the tracer's ring and slowest list.
func (s *ActiveSpan) End(err error) {
	if s.t == nil {
		return
	}
	s.rec.dur = time.Since(s.start).Nanoseconds()
	if err != nil {
		s.rec.err = err.Error()
	}
	s.t.record(&s.rec)
}

// record files r into the ring and, if it is slow enough, the slowest list.
func (t *Tracer) record(r *spanRec) {
	slot := t.ring.claim()
	slot.v = *r
	slot.mu.Unlock()
	if r.dur <= t.floor.Load() {
		return
	}
	// r takes the last place if the list has room or r beats the
	// current floor, then moves up to its rank.
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	if len(t.slowest) < slowestSpans {
		t.slowest = append(t.slowest, *r)
	} else if last := &t.slowest[len(t.slowest)-1]; r.dur > last.dur {
		*last = *r
	} else {
		return
	}
	raiseLast(t.slowest)
	if len(t.slowest) == slowestSpans {
		t.floor.Store(t.slowest[len(t.slowest)-1].dur)
	}
}

// raiseLast moves the last of spans, sorted slowest first but for that
// one, up to its rank. Unlike sort.Slice it allocates nothing, so what a
// request allocates does not depend on how often its span makes the list.
func raiseLast(spans []spanRec) {
	for i := len(spans) - 1; i > 0 && spans[i].dur > spans[i-1].dur; i-- {
		spans[i], spans[i-1] = spans[i-1], spans[i]
	}
}

// SpanCount reports the total number of spans ever finished.
func (t *Tracer) SpanCount() int64 {
	if t == nil {
		return 0
	}
	return int64(t.ring.next.Load())
}

// Recent returns up to n most recently finished spans, newest first.
func (t *Tracer) Recent(n int) []Span {
	if t == nil || n <= 0 {
		return nil
	}
	out := []Span{}
	for r := range t.ring.newest() {
		if out = append(out, r.wire()); len(out) == n {
			break
		}
	}
	return out
}

// Slowest returns up to n slowest spans seen so far, slowest first.
func (t *Tracer) Slowest(n int) []Span {
	if t == nil || n <= 0 {
		return nil
	}
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	out := make([]Span, min(n, len(t.slowest)))
	for i := range out {
		out[i] = t.slowest[i].wire()
	}
	return out
}

// SpansFor returns every span of the given trace still held in the
// ring, ordered by hop depth then start time — the local half of
// cross-node trace assembly (GET /debug/traces/{traceID}). It scans the
// ring, as Journal.Events does. Spans evicted by ring wraparound are
// gone; assembly marks such traces partial rather than failing.
func (t *Tracer) SpansFor(traceID string) []Span {
	if t == nil || traceID == "" {
		return nil
	}
	out := []Span{}
	for r := range t.ring.newest() {
		if r.traceID == traceID {
			out = append(out, r.wire())
		}
	}
	slices.SortFunc(out, func(a, b Span) int {
		return cmp.Or(cmp.Compare(a.Hop, b.Hop), cmp.Compare(a.StartNanos, b.StartNanos))
	})
	return out
}

// TraceDump is the GET /debug/traces response body.
type TraceDump struct {
	Spans   int64  `json:"spans"`
	Recent  []Span `json:"recent"`
	Slowest []Span `json:"slowest"`
}

// Dump builds the /debug/traces payload with up to n spans per section.
func (t *Tracer) Dump(n int) TraceDump {
	if t == nil || n <= 0 {
		return TraceDump{Spans: t.SpanCount(), Recent: []Span{}, Slowest: []Span{}}
	}
	return TraceDump{Spans: t.SpanCount(), Recent: t.Recent(n), Slowest: t.Slowest(n)}
}
