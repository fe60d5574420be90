package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestBucketFor(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 0}, {1000, 0},
		{1001, 1}, {2000, 1},
		{2001, 2}, {4000, 2},
		{1_000_000, 10}, // 1ms: 1000<<10 = 1_024_000 ≥ 1e6, 1000<<9 = 512_000 < 1e6
		{1 << 62, histBuckets},
	}
	for _, c := range cases {
		got := bucketFor(c.ns)
		if got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.ns, got, c.want)
		}
		if got < histBuckets && bucketBound(got) < c.ns {
			t.Errorf("bucketFor(%d) = %d but bound %d < value", c.ns, got, bucketBound(got))
		}
		if got > 0 && got <= histBuckets && bucketBound(got-1) >= c.ns {
			t.Errorf("bucketFor(%d) = %d but previous bound %d already covers it", c.ns, got, bucketBound(got-1))
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	// 100 observations at ~1ms, 10 at ~100ms.
	for i := 0; i < 100; i++ {
		h.Record(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(100 * time.Millisecond)
	}
	p50 := h.Quantile(0.50)
	p95 := h.Quantile(0.95)
	p99 := h.Quantile(0.99)
	if p50 < time.Millisecond || p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms bucket bound", p50)
	}
	// Rank 104 of 110 falls in the 100ms group, whose bucket bound is
	// 131.072ms (1µs << 17).
	if p95 < 100*time.Millisecond || p95 > 200*time.Millisecond {
		t.Errorf("p95 = %v, want ~100ms bucket bound", p95)
	}
	if p99 < 100*time.Millisecond || p99 > 200*time.Millisecond {
		t.Errorf("p99 = %v, want ~100ms bucket bound", p99)
	}
	if p95 < p50 || p99 < p95 {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if got := h.Quantile(1); got < 100*time.Millisecond {
		t.Errorf("p100 = %v, want ≥ 100ms", got)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram()
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 50; i++ {
		a.Record(time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		b.Record(time.Second)
	}
	m := a.Snapshot().Merge(b.Snapshot())
	if m.Count != 100 {
		t.Fatalf("merged count = %d, want 100", m.Count)
	}
	wantSum := int64(50)*time.Millisecond.Nanoseconds() + int64(50)*time.Second.Nanoseconds()
	if m.SumNS != wantSum {
		t.Errorf("merged sum = %d, want %d", m.SumNS, wantSum)
	}
	// Half the mass is at 1ms, half at 1s: p50 in the 1ms bucket, p99 ≥ 1s.
	if p50 := m.Quantile(0.5); p50 > 2*time.Millisecond {
		t.Errorf("merged p50 = %v, want ≤ ~1ms bucket", p50)
	}
	if p99 := m.Quantile(0.99); p99 < time.Second {
		t.Errorf("merged p99 = %v, want ≥ 1s", p99)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	vec := NewHistogramVec("worker")
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			label := string(rune('a' + g%4))
			for i := 0; i < perG; i++ {
				d := time.Duration(i%1000) * time.Microsecond
				h.Record(d)
				vec.With(label).Record(d)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != goroutines*perG {
		t.Errorf("count = %d, want %d", got, goroutines*perG)
	}
	var total uint64
	for _, c := range vec.snapshotAll() {
		total += c.snap.Count
	}
	if total != goroutines*perG {
		t.Errorf("vec total = %d, want %d", total, goroutines*perG)
	}
}

func TestNilHistogramSafe(t *testing.T) {
	var h *Histogram
	h.Record(time.Second) // must not panic
	if h.Snapshot().Count != 0 {
		t.Error("nil histogram snapshot should be empty")
	}
	var v *HistogramVec
	v.With("x").Record(time.Second) // nil vec → nil child → no-op
}

// TestHistogramRecordAllocs is the recording half of "observation never
// perturbs": one Record allocates nothing. Allocation counts are exact,
// so this replaces a nanosecond ceiling that depended on the machine;
// BenchmarkHistogramRecord's ns/op is tracked, not gated.
func TestHistogramRecordAllocs(t *testing.T) {
	h := NewHistogram()
	d := time.Microsecond
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Record(d)
		d += time.Microsecond
	}); allocs != 0 {
		t.Fatalf("Histogram.Record: %.2f allocations per call, want 0", allocs)
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
}

func BenchmarkHistogramVecRecord(b *testing.B) {
	vec := NewHistogramVec("backend", "outcome")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vec.With("http://peer:8080", "ok").Record(time.Millisecond)
	}
}

func BenchmarkSpanRecord(b *testing.B) {
	tr := NewTracer(0)
	ctx := ContextWithTrace(context.Background(), TraceContext{TraceID: NewID(), SpanID: NewID()})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := tr.StartSpan(ctx, "bench")
		sp.End(nil)
	}
}
