package obs

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestJournalEmitAndFilter(t *testing.T) {
	j := NewJournal("node-a", 8)
	j.Emit("dispatch", "suspension", SevWarn, "cafe0123cafe4567", "backend", "b1")
	j.Emit("admit", "shed", SevWarn, "")
	j.Emit("replicate", "ingest", SevInfo, "", "peer", "b2", "records", "7")

	if got := j.EventCount(); got != 3 {
		t.Fatalf("EventCount = %d, want 3", got)
	}

	all := j.Events("", SevInfo, 10)
	if len(all) != 3 {
		t.Fatalf("Events() = %d events, want 3", len(all))
	}
	// Newest first.
	if all[0].Kind != "ingest" || all[2].Kind != "suspension" {
		t.Fatalf("order wrong: got %q ... %q", all[0].Kind, all[2].Kind)
	}
	if all[2].TraceID != "cafe0123cafe4567" {
		t.Errorf("TraceID = %q", all[2].TraceID)
	}
	if all[2].Attrs["backend"] != "b1" {
		t.Errorf("Attrs = %v", all[2].Attrs)
	}
	if all[0].Node != "node-a" {
		t.Errorf("Node = %q", all[0].Node)
	}

	if got := j.Events("dispatch", SevInfo, 10); len(got) != 1 || got[0].Kind != "suspension" {
		t.Fatalf("subsystem filter: %+v", got)
	}
	if got := j.Events("", SevWarn, 10); len(got) != 2 {
		t.Fatalf("severity filter: %d events, want 2", len(got))
	}
	if got := j.Events("", SevError, 10); len(got) != 0 {
		t.Fatalf("severity=error: %d events, want 0", len(got))
	}
	if got := j.Events("", SevInfo, 1); len(got) != 1 {
		t.Fatalf("n=1: %d events", len(got))
	}
}

func TestJournalWraparound(t *testing.T) {
	j := NewJournal("n", 4)
	for i := 0; i < 10; i++ {
		j.Emit("s", "k", SevInfo, "")
	}
	if got := j.EventCount(); got != 10 {
		t.Fatalf("EventCount = %d, want 10", got)
	}
	if got := len(j.Events("", SevInfo, 100)); got != 4 {
		t.Fatalf("ring kept %d events, want 4", got)
	}
	// The counters remember every emission, not just the ring's worth.
	if got := j.CountsByKind()["s/k"]; got != 10 {
		t.Fatalf("CountsByKind = %d, want 10", got)
	}
}

func TestJournalOnNewKind(t *testing.T) {
	j := NewJournal("n", 8)
	var seen []string
	j.OnNewKind(func(subsystem, kind string, n *atomic.Uint64) {
		seen = append(seen, subsystem+"/"+kind)
	})
	j.Emit("a", "x", SevInfo, "")
	j.Emit("a", "x", SevInfo, "")
	j.Emit("b", "y", SevInfo, "")
	if len(seen) != 2 || seen[0] != "a/x" || seen[1] != "b/y" {
		t.Fatalf("OnNewKind fired %v, want [a/x b/y]", seen)
	}
}

func TestNilJournalIsNoOp(t *testing.T) {
	var j *Journal
	j.Emit("s", "k", SevError, "id", "k", "v") // must not panic
	j.OnNewKind(nil)
	if j.EventCount() != 0 || j.Events("", SevInfo, 10) != nil || j.CountsByKind() != nil {
		t.Fatal("nil journal must report nothing")
	}
	d := j.Dump("", SevInfo, 10)
	if d.Recent == nil || len(d.Recent) != 0 {
		t.Fatalf("nil Dump = %+v", d)
	}
	j.WriteText(&strings.Builder{}, 10)
}

// TestJournalConcurrent hammers emit and render from many goroutines;
// run under -race it proves the ring needs no global lock.
func TestJournalConcurrent(t *testing.T) {
	j := NewJournal("n", 64)
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.Emit("dispatch", "suspension", SevWarn, "cafe0123cafe4567", "backend", "b1", "i", "x")
			}
		}()
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ev := range j.Events("", SevInfo, 64) {
					// Every stable cell must be internally consistent:
					// a torn mix of two writers would fail these.
					if ev.Subsystem != "dispatch" || ev.Kind != "suspension" {
						t.Errorf("torn event: %+v", ev)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := j.EventCount(); got != writers*perWriter {
		t.Fatalf("EventCount = %d, want %d", got, writers*perWriter)
	}
	if got := j.CountsByKind()["dispatch/suspension"]; got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
}

func TestSeverityRoundTrip(t *testing.T) {
	for _, sev := range []Severity{SevInfo, SevWarn, SevError} {
		got, ok := ParseSeverity(sev.String())
		if !ok || got != sev {
			t.Errorf("ParseSeverity(%q) = %v, %v", sev.String(), got, ok)
		}
	}
	if _, ok := ParseSeverity("loud"); ok {
		t.Error("ParseSeverity accepted junk")
	}
}

func TestJournalWriteText(t *testing.T) {
	j := NewJournal("n", 8)
	j.Emit("store", "compaction", SevInfo, "", "segments", "3")
	var b strings.Builder
	j.WriteText(&b, 10)
	out := b.String()
	if !strings.Contains(out, "store/compaction") || !strings.Contains(out, "segments=3") {
		t.Fatalf("WriteText output %q", out)
	}
}

// TestJournalWriteTextAttrOrder: the SIGQUIT dump prints an event's
// attributes in emit order, so two dumps of one journal read the same.
func TestJournalWriteTextAttrOrder(t *testing.T) {
	j := NewJournal("n", 8)
	j.Emit("dispatch", "suspension", SevWarn, "", "backend", "b1", "error", "refused", "attempt", "3")
	var first string
	for i := 0; i < 20; i++ {
		var b strings.Builder
		j.WriteText(&b, 10)
		out := b.String()
		if strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, " backend=b1 error=refused attempt=3\n") {
			t.Fatalf("render %d = %q, want one line ending in the attributes in emit order", i, out)
		}
		if i == 0 {
			first = out
		} else if out != first {
			t.Fatalf("render %d = %q differs from render 0 = %q", i, out, first)
		}
	}
}

// TestSpanAllocations: a job.run-shaped span — started under a parent
// context, three attributes, ended — allocates only its span ID and the
// context value that carries it to children: the context node and the
// trace context boxed into it. The span itself lives on the caller's
// stack and is copied into the ring.
func TestSpanAllocations(t *testing.T) {
	tr := NewTracer(0)
	ctx := ContextWithTrace(context.Background(), TraceContext{TraceID: NewID(), SpanID: NewID()})
	if allocs := testing.AllocsPerRun(1000, func() {
		_, sp := tr.StartSpan(ctx, "job.run")
		sp.SetAttr("config", "Baseline")
		sp.SetAttr("method", "scimark/fft/FFT.bitreverse/1")
		sp.SetAttr("outcome", "warm")
		sp.End(nil)
	}); allocs > 3 {
		t.Fatalf("job.run-shaped span: %.2f allocations, want <= 3", allocs)
	}
}

// TestEventEmitAllocs: the journal's hot path stays allocation-free, or
// emit sites on the dispatch and admission paths would perturb the system
// they observe. BenchmarkEventEmit's ns/op is tracked, not gated.
func TestEventEmitAllocs(t *testing.T) {
	j := NewJournal("allocs", 512)
	j.Emit("dispatch", "suspension", SevWarn, "cafe0123cafe4567", "backend", "b1") // first sight of the kind
	if allocs := testing.AllocsPerRun(1000, func() {
		j.Emit("dispatch", "suspension", SevWarn, "cafe0123cafe4567", "backend", "b1")
	}); allocs != 0 {
		t.Fatalf("Journal.Emit: %.2f allocations per call, want 0", allocs)
	}
}

// BenchmarkEventEmit measures the cost TestEventEmitAllocs keeps free of
// allocations.
func BenchmarkEventEmit(b *testing.B) {
	j := NewJournal("bench", 512)
	j.Emit("dispatch", "suspension", SevWarn, "cafe0123cafe4567", "backend", "b1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Emit("dispatch", "suspension", SevWarn, "cafe0123cafe4567", "backend", "b1")
	}
}
