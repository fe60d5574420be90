package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// defaultRingSpans bounds the per-process recent-span ring.
	defaultRingSpans = 512
	// slowestSpans bounds the separately-kept slowest-span list.
	slowestSpans = 32
)

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

// Tracer records finished spans into a bounded ring plus a slowest-N
// list. The zero number of spans it can lose to concurrent eviction is
// not guaranteed — it is a diagnostic buffer, not a durable log. A nil
// *Tracer is a valid no-op tracer.
type Tracer struct {
	spans atomic.Int64 // total spans ever finished

	mu      sync.Mutex
	ring    []Span // fixed capacity, ringNext is the next write slot
	next    int
	filled  bool
	slowest []Span // kept sorted descending by DurationNS, ≤ slowestSpans
	// byTrace indexes the ring by trace ID — which slots currently hold
	// spans of each trace — so SpansFor (and through it cross-node trace
	// assembly) is a map hit instead of a ring scan. Entries are evicted
	// as the ring overwrites their slots, so the index is bounded by the
	// ring capacity.
	byTrace map[string][]int
}

// NewTracer builds a tracer whose recent-span ring holds cap spans
// (cap <= 0 selects the default of 512).
func NewTracer(capSpans int) *Tracer {
	if capSpans <= 0 {
		capSpans = defaultRingSpans
	}
	return &Tracer{ring: make([]Span, capSpans), byTrace: make(map[string][]int)}
}

// ActiveSpan is an in-flight span; End finishes it into the tracer. A
// nil *ActiveSpan is a valid no-op.
type ActiveSpan struct {
	t     *Tracer
	span  Span
	start time.Time
}

// StartSpan begins a span named name. If ctx already carries a trace
// context the span joins that trace as a child at the same hop depth;
// otherwise a fresh trace is minted at hop 0. The returned context
// carries the new span's context so children and Inject see it.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	sp := Span{Name: name, SpanID: NewID()}
	if tc, ok := TraceFrom(ctx); ok {
		sp.TraceID = tc.TraceID
		sp.ParentID = tc.SpanID
		sp.Hop = tc.Hop
	} else {
		sp.TraceID = NewID()
	}
	now := time.Now()
	sp.StartNanos = now.UnixNano()
	ctx = ContextWithTrace(ctx, TraceContext{TraceID: sp.TraceID, SpanID: sp.SpanID, Hop: sp.Hop})
	return ctx, &ActiveSpan{t: t, span: sp, start: now}
}

// SetAttr attaches a key/value attribute to the span.
func (s *ActiveSpan) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.span.Attrs == nil {
		s.span.Attrs = make(map[string]string, 4)
	}
	s.span.Attrs[key] = value
}

// Context reports the span's trace context (for manual propagation).
func (s *ActiveSpan) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.span.TraceID, SpanID: s.span.SpanID, Hop: s.span.Hop}
}

// End finishes the span, recording err's text as the error kind when
// non-nil, and files it into the tracer's ring and slowest list.
func (s *ActiveSpan) End(err error) {
	if s == nil {
		return
	}
	s.span.DurationNS = time.Since(s.start).Nanoseconds()
	if err != nil {
		s.span.Error = err.Error()
	}
	s.t.record(s.span)
}

func (t *Tracer) record(sp Span) {
	t.spans.Add(1)
	t.mu.Lock()
	// The ring is about to overwrite slot t.next: drop the evicted
	// span's slot from the trace index first.
	if t.filled {
		if old := t.ring[t.next].TraceID; old != "" {
			slots := t.byTrace[old]
			for i, s := range slots {
				if s == t.next {
					slots = append(slots[:i], slots[i+1:]...)
					break
				}
			}
			if len(slots) == 0 {
				delete(t.byTrace, old)
			} else {
				t.byTrace[old] = slots
			}
		}
	}
	t.byTrace[sp.TraceID] = append(t.byTrace[sp.TraceID], t.next)
	t.ring[t.next] = sp
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	// Maintain the slowest list: sp takes the last place if the list has
	// room or sp beats the current floor, then moves up to its rank.
	if len(t.slowest) < slowestSpans {
		t.slowest = append(t.slowest, sp)
		raiseLast(t.slowest)
	} else if sp.DurationNS > t.slowest[len(t.slowest)-1].DurationNS {
		t.slowest[len(t.slowest)-1] = sp
		raiseLast(t.slowest)
	}
	t.mu.Unlock()
}

// raiseLast moves the last of spans, sorted slowest first but for that
// one, up to its rank. Unlike sort.Slice it allocates nothing, so what a
// request allocates does not depend on how often its span makes the list.
func raiseLast(spans []Span) {
	for i := len(spans) - 1; i > 0 && spans[i].DurationNS > spans[i-1].DurationNS; i-- {
		spans[i], spans[i-1] = spans[i-1], spans[i]
	}
}

// SpanCount reports the total number of spans ever finished.
func (t *Tracer) SpanCount() int64 {
	if t == nil {
		return 0
	}
	return t.spans.Load()
}

// Recent returns up to n most recently finished spans, newest first.
func (t *Tracer) Recent(n int) []Span {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	size := t.next
	if t.filled {
		size = len(t.ring)
	}
	if n > size {
		n = size
	}
	out := make([]Span, 0, n)
	for i := 0; i < n; i++ {
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		out = append(out, t.ring[idx])
	}
	return out
}

// Slowest returns up to n slowest spans seen so far, slowest first.
func (t *Tracer) Slowest(n int) []Span {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > len(t.slowest) {
		n = len(t.slowest)
	}
	out := make([]Span, n)
	copy(out, t.slowest[:n])
	return out
}

// SpansFor returns every span of the given trace still held in the
// ring, ordered by hop depth then start time — the local half of
// cross-node trace assembly (GET /debug/traces/{traceID}). Spans
// evicted by ring wraparound are gone; assembly marks such traces
// partial rather than failing.
func (t *Tracer) SpansFor(traceID string) []Span {
	if t == nil || traceID == "" {
		return nil
	}
	t.mu.Lock()
	slots := t.byTrace[traceID]
	out := make([]Span, 0, len(slots))
	for _, idx := range slots {
		out = append(out, t.ring[idx])
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hop != out[j].Hop {
			return out[i].Hop < out[j].Hop
		}
		return out[i].StartNanos < out[j].StartNanos
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
	if t == nil {
		return TraceDump{Recent: []Span{}, Slowest: []Span{}}
	}
	recent := t.Recent(n)
	if recent == nil {
		recent = []Span{}
	}
	slowest := t.Slowest(n)
	if slowest == nil {
		slowest = []Span{}
	}
	return TraceDump{Spans: t.SpanCount(), Recent: recent, Slowest: slowest}
}
