package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Severity grades journal events.
type Severity uint8

const (
	SevInfo Severity = iota
	SevWarn
	SevError
)

// String renders the wire name ("info", "warn", "error").
func (s Severity) String() string {
	switch s {
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	default:
		return "info"
	}
}

// ParseSeverity maps a wire name back to its Severity; ok=false on
// unknown input.
func ParseSeverity(s string) (Severity, bool) {
	switch s {
	case "info":
		return SevInfo, true
	case "warn":
		return SevWarn, true
	case "error":
		return SevError, true
	}
	return SevInfo, false
}

// Event is one journal entry in the GET /debug/events wire format: a
// state transition some subsystem decided was worth remembering
// (suspension, shed, cursor heal, compaction, ...), stamped with the
// node it happened on and, when the transition belonged to a request,
// the trace ID that links it to an assembled trace.
type Event struct {
	Time      int64             `json:"timeUnixNano"`
	Node      string            `json:"node,omitempty"`
	Subsystem string            `json:"subsystem"`
	Kind      string            `json:"kind"`
	Severity  string            `json:"severity"`
	TraceID   string            `json:"traceId,omitempty"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

// eventRec is one event as the ring holds it, rendered to an Event
// only on read.
type eventRec struct {
	time                     int64
	subsystem, kind, traceID string
	sev                      Severity
	attrs                    attrList
}

// eventKey keys the per-(subsystem,kind) counters.
type eventKey struct{ subsystem, kind string }

// Journal is the structured event ring: a bounded buffer of typed
// state transitions every subsystem emits into, rendered by
// GET /debug/events and dumped to stderr on SIGQUIT. Recording is one
// claim of the shared ring plus a handful of stores in place — emitters
// never contend with each other, allocate nothing, and finish in O(1) —
// so emit sites can sit on dispatch and admission hot paths.
// Per-(subsystem,kind) counters survive ring wraparound and feed
// javaflow_events_total; they live in a copy-on-write map so bumping
// one is an atomic pointer load away. A nil *Journal is a valid no-op,
// like every obs instrument.
type Journal struct {
	node string
	// base anchors timestamps: wall time is derived from one monotonic
	// clock read against it, half the cost of time.Now's two reads —
	// the difference between emit fitting the 100ns budget or not.
	base   time.Time
	baseNS int64
	ring   ring[eventRec]

	// counts is an immutable map swapped wholesale when a new
	// (subsystem,kind) pair appears; mu serializes only those swaps.
	counts atomic.Pointer[map[eventKey]*atomic.Uint64]
	mu     sync.Mutex
}

// NewJournal builds a journal whose ring holds capEvents entries
// (cap <= 0 selects the default of 512). node stamps every rendered
// event so fleet tooling can tell whose journal a line came from.
func NewJournal(node string, capEvents int) *Journal {
	base := time.Now()
	j := &Journal{
		node:   node,
		base:   base,
		baseNS: base.UnixNano(),
		ring:   newRing[eventRec](capEvents),
	}
	empty := make(map[eventKey]*atomic.Uint64)
	j.counts.Store(&empty)
	return j
}

// Emit files one event. attrs is an even-length key/value list; at
// most 4 pairs are kept. Safe for concurrent use from any goroutine;
// the hot path is allocation-free and O(1) (CI pins it under 100ns
// next to the histogram record gate).
func (j *Journal) Emit(subsystem, kind string, sev Severity, traceID string, attrs ...string) {
	if j == nil {
		return
	}
	j.count(subsystem, kind)
	now := j.baseNS + time.Since(j.base).Nanoseconds()
	slot := j.ring.claim()
	e := &slot.v
	e.time, e.subsystem, e.kind, e.sev, e.traceID = now, subsystem, kind, sev, traceID
	e.attrs.fill(attrs)
	slot.mu.Unlock()
}

// count bumps the (subsystem,kind) counter, creating it on first
// sight. The fast path is an atomic pointer load plus a map hit on an
// immutable map: no locks, no allocation.
func (j *Journal) count(subsystem, kind string) {
	k := eventKey{subsystem, kind}
	if n := (*j.counts.Load())[k]; n != nil {
		n.Add(1)
		return
	}
	j.mu.Lock()
	old := *j.counts.Load()
	n := old[k]
	if n == nil {
		n = new(atomic.Uint64)
		next := make(map[eventKey]*atomic.Uint64, len(old)+1)
		for ok, ov := range old {
			next[ok] = ov
		}
		next[k] = n
		j.counts.Store(&next)
	}
	j.mu.Unlock()
	n.Add(1)
}

// EventCount reports the total number of events ever emitted.
func (j *Journal) EventCount() uint64 {
	if j == nil {
		return 0
	}
	return j.ring.next.Load()
}

// Events returns up to n events newest-first, keeping only those
// matching subsystem (empty = all) at or above minSev.
func (j *Journal) Events(subsystem string, minSev Severity, n int) []Event {
	var out []Event
	for _, e := range j.recent(subsystem, minSev, n) {
		out = append(out, Event{Time: e.time, Node: j.node, Subsystem: e.subsystem, Kind: e.kind,
			Severity: e.sev.String(), TraceID: e.traceID, Attrs: e.attrs.wire()})
	}
	return out
}

// recent copies up to n matching events out of the ring, newest-first.
func (j *Journal) recent(subsystem string, minSev Severity, n int) []eventRec {
	if j == nil || n <= 0 {
		return nil
	}
	var out []eventRec
	for e := range j.ring.newest() {
		if (subsystem == "" || e.subsystem == subsystem) && e.sev >= minSev {
			if out = append(out, e); len(out) == n {
				break
			}
		}
	}
	return out
}

// CountsByKind snapshots the per-(subsystem,kind) totals, which
// survive ring wraparound (the ring remembers the last N events, the
// counters remember them all).
func (j *Journal) CountsByKind() map[string]uint64 {
	if j == nil {
		return nil
	}
	m := *j.counts.Load()
	out := make(map[string]uint64, len(m))
	for k, n := range m {
		out[k.subsystem+"/"+k.kind] = n.Load()
	}
	return out
}

// EventDump is the GET /debug/events response body.
type EventDump struct {
	Node   string            `json:"node,omitempty"`
	Events uint64            `json:"events"`
	Counts map[string]uint64 `json:"countsByKind,omitempty"`
	Recent []Event           `json:"recent"`
}

// Dump builds the /debug/events payload with up to n filtered events.
func (j *Journal) Dump(subsystem string, minSev Severity, n int) EventDump {
	if j == nil {
		return EventDump{Recent: []Event{}}
	}
	recent := j.Events(subsystem, minSev, n)
	if recent == nil {
		recent = []Event{}
	}
	return EventDump{
		Node:   j.node,
		Events: j.EventCount(),
		Counts: j.CountsByKind(),
		Recent: recent,
	}
}

// WriteText renders up to n newest events oldest-first as one line
// each, attributes in emit order — the SIGQUIT stderr dump format.
func (j *Journal) WriteText(w io.Writer, n int) {
	recs := j.recent("", SevInfo, n)
	for i := len(recs) - 1; i >= 0; i-- {
		e := &recs[i]
		fmt.Fprintf(w, "%s %-5s %s/%s", time.Unix(0, e.time).UTC().Format(time.RFC3339Nano),
			e.sev, e.subsystem, e.kind)
		if e.traceID != "" {
			fmt.Fprintf(w, " trace=%s", e.traceID)
		}
		for i := 0; i < e.attrs.n; i += 2 {
			fmt.Fprintf(w, " %s=%s", e.attrs.kv[i], e.attrs.kv[i+1])
		}
		fmt.Fprintln(w)
	}
}
