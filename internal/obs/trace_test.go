package obs

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceHeaderRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: "0123456789abcdef", SpanID: "fedcba9876543210", Hop: 3}
	got, ok := ParseTrace(tc.Header())
	if !ok || got != tc {
		t.Fatalf("ParseTrace(%q) = %+v, %v; want %+v", tc.Header(), got, ok, tc)
	}
}

// TestFormatIDMatchesSprintf: IDs render as fmt's %016x did, so every
// ID is 16 lower-case hex digits that ParseTrace accepts.
func TestFormatIDMatchesSprintf(t *testing.T) {
	for _, v := range []uint64{0, 1, 0xa, 0xdeadbeef, 0x0123456789abcdef, 0xfedcba9876543210, 1 << 63, ^uint64(0)} {
		if got, want := formatID(v), fmt.Sprintf("%016x", v); got != want {
			t.Errorf("formatID(%#x) = %q, want %q", v, got, want)
		}
	}
	id := NewID()
	if _, ok := ParseTrace(id + "-" + id + "-0"); !ok {
		t.Errorf("NewID() = %q does not parse as a trace ID", id)
	}
}

func TestParseTraceRejectsMalformed(t *testing.T) {
	bad := []string{
		"", "abc", "x-y", "g123-0123456789abcdef-0", // non-hex trace ID
		"0123456789abcdef-0123456789abcdef--1",
		"0123456789abcdef-0123456789abcdef-999", // hop too deep
		"0123456789abcdef-0123456789abcdef-x",
		"-0123456789abcdef-1",
		strings.Repeat("a", 64) + "-0123456789abcdef-0",
	}
	for _, s := range bad {
		if _, ok := ParseTrace(s); ok {
			t.Errorf("ParseTrace(%q) accepted, want reject", s)
		}
	}
}

func TestInjectIncrementsHop(t *testing.T) {
	ctx := ContextWithTrace(context.Background(), TraceContext{TraceID: "0123456789abcdef", SpanID: "00000000000000aa", Hop: 1})
	req := httptest.NewRequest("POST", "http://peer/v1/run", nil)
	Inject(req, ctx)
	tc, ok := ParseTrace(req.Header.Get(TraceHeader))
	if !ok {
		t.Fatal("injected header did not parse")
	}
	if tc.Hop != 2 || tc.TraceID != "0123456789abcdef" || tc.SpanID != "00000000000000aa" {
		t.Fatalf("injected context = %+v, want same IDs at hop 2", tc)
	}

	// No trace in context → no header.
	req2 := httptest.NewRequest("POST", "http://peer/v1/run", nil)
	Inject(req2, context.Background())
	if req2.Header.Get(TraceHeader) != "" {
		t.Error("Inject without a trace context set a header")
	}
}

func TestStartSpanParentage(t *testing.T) {
	tr := NewTracer(8)
	ctx, parent := tr.StartSpan(context.Background(), "root")
	pctx := parent.Context()
	if pctx.TraceID == "" || pctx.Hop != 0 {
		t.Fatalf("root span context = %+v, want fresh trace at hop 0", pctx)
	}
	_, child := tr.StartSpan(ctx, "child")
	child.SetAttr("k", "v")
	child.End(errors.New("boom"))
	parent.End(nil)

	recent := tr.Recent(10)
	if len(recent) != 2 {
		t.Fatalf("recent = %d spans, want 2", len(recent))
	}
	// Newest first: child ended first, parent second → recent[0] is root.
	root, ch := recent[0], recent[1]
	if root.Name != "root" || ch.Name != "child" {
		t.Fatalf("span order: got %q, %q", root.Name, ch.Name)
	}
	if ch.TraceID != root.TraceID {
		t.Error("child not in parent's trace")
	}
	if ch.ParentID != root.SpanID {
		t.Errorf("child parent = %q, want %q", ch.ParentID, root.SpanID)
	}
	if ch.Error != "boom" || ch.Attrs["k"] != "v" {
		t.Errorf("child error/attrs not recorded: %+v", ch)
	}
}

func TestStartSpanJoinsInboundTrace(t *testing.T) {
	tr := NewTracer(8)
	inbound := TraceContext{TraceID: "0123456789abcdef", SpanID: "00000000000000aa", Hop: 1}
	ctx := ContextWithTrace(context.Background(), inbound)
	_, sp := tr.StartSpan(ctx, "server")
	sp.End(nil)
	got := tr.Recent(1)[0]
	if got.TraceID != inbound.TraceID || got.ParentID != inbound.SpanID || got.Hop != 1 {
		t.Fatalf("server span = %+v, want joined to inbound trace at hop 1", got)
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 100; i++ {
		_, sp := tr.StartSpan(context.Background(), "s")
		sp.End(nil)
	}
	if got := len(tr.Recent(100)); got != 4 {
		t.Errorf("recent length = %d, want ring cap 4", got)
	}
	if tr.SpanCount() != 100 {
		t.Errorf("span count = %d, want 100", tr.SpanCount())
	}
	if got := len(tr.Slowest(100)); got > slowestSpans {
		t.Errorf("slowest length = %d, want ≤ %d", got, slowestSpans)
	}
}

func TestTracerSlowestOrdering(t *testing.T) {
	tr := NewTracer(4)
	for _, d := range []int64{5, 1, 9, 3} {
		tr.record(&spanRec{name: "s", dur: d * int64(time.Millisecond)})
	}
	slow := tr.Slowest(4)
	for i := 1; i < len(slow); i++ {
		if slow[i].DurationNS > slow[i-1].DurationNS {
			t.Fatalf("slowest not descending: %v", slow)
		}
	}
	if slow[0].DurationNS != 9*int64(time.Millisecond) {
		t.Errorf("slowest[0] = %dns, want 9ms", slow[0].DurationNS)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartSpan(context.Background(), "x")
	sp.SetAttr("a", "b")
	sp.End(nil)
	if ctx == nil {
		t.Fatal("nil tracer must still return the context")
	}
	if tr.SpanCount() != 0 || tr.Recent(5) != nil || tr.Slowest(5) != nil {
		t.Error("nil tracer should report empty state")
	}
	d := tr.Dump(5)
	if d.Spans != 0 || d.Recent == nil || d.Slowest == nil {
		t.Errorf("nil tracer dump = %+v, want empty non-nil slices", d)
	}
}

// TestTracerConcurrent ends spans from many goroutines while others read
// the ring and the slowest list; run under -race it proves neither needs
// a tracer-wide lock, and every span read back is whole.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, sp := range append(tr.Recent(64), tr.Slowest(32)...) {
					if (sp.Name == "child") != (sp.ParentID != "") || sp.Attrs["k"] != sp.Name {
						t.Errorf("torn span: %+v", sp)
						return
					}
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				ctx, sp := tr.StartSpan(context.Background(), "c")
				sp.SetAttr("k", "c")
				_, child := tr.StartSpan(ctx, "child")
				child.SetAttr("k", "child")
				child.End(nil)
				sp.End(nil)
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if tr.SpanCount() != 8*500*2 {
		t.Errorf("span count = %d, want %d", tr.SpanCount(), 8*500*2)
	}
}

// FuzzParseTrace holds ParseTrace to its contract on any header value: it
// never panics, a rejected value yields the zero TraceContext, and an
// accepted one parses back from its own Header unchanged.
func FuzzParseTrace(f *testing.F) {
	f.Add("0123456789abcdef-fedcba9876543210-3")
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTrace(s)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("ParseTrace(%q) rejected the value but returned %+v", s, tc)
			}
			return
		}
		if again, ok := ParseTrace(tc.Header()); !ok || again != tc {
			t.Fatalf("ParseTrace(%q) = %+v, but its header %q parses to %+v, %v", s, tc, tc.Header(), again, ok)
		}
	})
}
