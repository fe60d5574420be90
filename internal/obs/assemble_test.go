package obs

import (
	"context"
	"testing"
	"time"
)

func TestSpansForIndexesAndEvicts(t *testing.T) {
	tr := NewTracer(4)
	ctx := ContextWithTrace(context.Background(), TraceContext{TraceID: "aaaa0000aaaa0000", SpanID: "bbbb0000bbbb0000", Hop: 1})
	_, sp := tr.StartSpan(ctx, "child")
	sp.End(nil)
	_, sp2 := tr.StartSpan(context.Background(), "other")
	sp2.End(nil)

	got := tr.SpansFor("aaaa0000aaaa0000")
	if len(got) != 1 || got[0].Name != "child" || got[0].Hop != 1 {
		t.Fatalf("SpansFor = %+v", got)
	}
	if got[0].ParentID != "bbbb0000bbbb0000" {
		t.Fatalf("ParentID = %q", got[0].ParentID)
	}

	// Overflow the ring; the indexed span must be evicted with its slot.
	for i := 0; i < 8; i++ {
		_, s := tr.StartSpan(context.Background(), "filler")
		s.End(nil)
	}
	if got := tr.SpansFor("aaaa0000aaaa0000"); len(got) != 0 {
		t.Fatalf("evicted trace still indexed: %+v", got)
	}

	var nilT *Tracer
	if nilT.SpansFor("aaaa0000aaaa0000") != nil {
		t.Fatal("nil tracer must report nothing")
	}
}

func TestSpansForOrdersByHop(t *testing.T) {
	tr := NewTracer(8)
	base := time.Now().UnixNano()
	for _, sp := range []spanRec{
		{traceID: "t0", spanID: "s2", hop: 1, start: base + 100},
		{traceID: "t0", spanID: "s1", hop: 0, start: base},
		{traceID: "t0", spanID: "s3", hop: 1, start: base + 50},
	} {
		tr.record(&sp)
	}
	got := tr.SpansFor("t0")
	if len(got) != 3 || got[0].SpanID != "s1" || got[1].SpanID != "s3" || got[2].SpanID != "s2" {
		t.Fatalf("order = %v", []string{got[0].SpanID, got[1].SpanID, got[2].SpanID})
	}
}

func TestAssembleTraceStitchesHops(t *testing.T) {
	// Front node: ingress span (hop 0) with a dispatch child; backend:
	// the server span the dispatch hop landed on (hop 1).
	front := NodeSpans{Node: "front", Spans: []Span{
		{TraceID: "t0", SpanID: "root", Name: "POST /v1/run", Hop: 0, StartNanos: 100, DurationNS: 900},
		{TraceID: "t0", SpanID: "disp", ParentID: "root", Name: "dispatch.attempt", Hop: 0, StartNanos: 200, DurationNS: 700},
	}}
	backend := NodeSpans{Node: "backend", Spans: []Span{
		{TraceID: "t0", SpanID: "serve", ParentID: "disp", Name: "POST /v1/run", Hop: 1, StartNanos: 300, DurationNS: 500},
	}}

	at := AssembleTrace("t0", []NodeSpans{backend, front})
	if at.Partial {
		t.Fatalf("complete trace marked partial: %+v", at)
	}
	if at.Spans != 3 || len(at.Roots) != 1 {
		t.Fatalf("spans=%d roots=%d", at.Spans, len(at.Roots))
	}
	root := at.Roots[0]
	if root.SpanID != "root" || root.Node != "front" {
		t.Fatalf("root = %+v", root.Span)
	}
	if len(root.Children) != 1 || root.Children[0].SpanID != "disp" {
		t.Fatalf("root children = %+v", root.Children)
	}
	hop1 := root.Children[0].Children
	if len(hop1) != 1 || hop1[0].SpanID != "serve" || hop1[0].Node != "backend" || hop1[0].Hop != 1 {
		t.Fatalf("hop-1 child = %+v", hop1)
	}
	if at.DurationNS != 900 {
		t.Fatalf("DurationNS = %d, want 900 (root span end - start)", at.DurationNS)
	}
}

func TestAssembleTraceDeadPeerIsPartialNotError(t *testing.T) {
	local := NodeSpans{Node: "front", Spans: []Span{
		{TraceID: "t0", SpanID: "root", Name: "ingress", Hop: 0, StartNanos: 1, DurationNS: 10},
	}}
	dead := NodeSpans{Node: "http://gone:1", Err: "dial tcp: connection refused"}

	at := AssembleTrace("t0", []NodeSpans{local, dead})
	if !at.Partial {
		t.Fatal("dead peer must mark the assembly partial")
	}
	if at.Spans != 1 || len(at.Roots) != 1 {
		t.Fatalf("local spans lost: %+v", at)
	}
	var deadStatus *NodeStatus
	for i := range at.Nodes {
		if at.Nodes[i].Node == "http://gone:1" {
			deadStatus = &at.Nodes[i]
		}
	}
	if deadStatus == nil || deadStatus.Err == "" || deadStatus.Spans != 0 {
		t.Fatalf("dead peer status = %+v", at.Nodes)
	}
}

func TestAssembleTraceOrphanIsRootAndPartial(t *testing.T) {
	// The parent span was evicted from every ring: the child surfaces as
	// a root and the assembly is marked partial.
	at := AssembleTrace("t0", []NodeSpans{{Node: "n", Spans: []Span{
		{TraceID: "t0", SpanID: "orphan", ParentID: "gone", Hop: 2, StartNanos: 5, DurationNS: 1},
	}}})
	if !at.Partial || len(at.Roots) != 1 || at.Roots[0].SpanID != "orphan" {
		t.Fatalf("orphan handling: %+v", at)
	}
	// Foreign-trace spans are dropped.
	at = AssembleTrace("t0", []NodeSpans{{Node: "n", Spans: []Span{{TraceID: "other", SpanID: "x"}}}})
	if at.Spans != 0 || len(at.Roots) != 0 {
		t.Fatalf("foreign span kept: %+v", at)
	}
	// Empty input is a valid empty assembly.
	at = AssembleTrace("t0", nil)
	if at.Spans != 0 || at.Partial || at.Roots == nil || at.Nodes == nil {
		t.Fatalf("empty input: %+v", at)
	}
}
