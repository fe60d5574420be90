package obs

import (
	"bufio"
	"regexp"
	"strings"
	"testing"
	"time"
)

// sampleLine is the text-format grammar for one sample:
// name{labels} value, labels optional.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [^ ]+$`)

// testCounts is embedded in testSnapshot, as sim.EngineTotals is in
// serve's engine block.
type testCounts struct {
	Requests int64 `prom:"javaflow_test_requests_total,counter" help:"Requests."`
}

type testBackend struct {
	Name string `prom:",label=backend"`
	Up   uint8  `prom:"javaflow_test_backend_up,gauge" help:"Backend liveness."`
	Jobs int64  `prom:"javaflow_test_backend_jobs_total,counter" help:"Jobs per backend."`
}

type testInfo struct {
	Version string `prom:",label=version"`
	Engine  int    `prom:",label=engine"`
}

// testSnapshot has the shapes a node's /metrics document uses: an
// embedded block, a labels-only info block, a slice of labelled
// elements, optional blocks behind a pointer and an interface, and
// fields with no series.
type testSnapshot struct {
	testCounts
	InFlight float64       `prom:"javaflow_test_inflight,gauge" help:"In flight."`
	Info     testInfo      `prom:"javaflow_test_build_info,gauge" help:"Build metadata as labels."`
	Backends []testBackend // one series per element
	Extra    *testCounts   // nil: no block
	Any      any           // nil: no block
	Untagged int64
	Cursor   map[string]int64
}

func buildTestSnapshot() testSnapshot {
	return testSnapshot{
		testCounts: testCounts{Requests: 42},
		InFlight:   3,
		Info:       testInfo{Version: "v1", Engine: 1},
		Backends: []testBackend{
			{Name: `http://peer:8080/with"quote\back` + "\nline", Up: 1, Jobs: 5},
			{Name: "b2", Jobs: 7},
		},
		Untagged: 9,
		Cursor:   map[string]int64{"1": 2},
	}
}

func buildTestRegistry() *Registry {
	reg := NewRegistry()
	h := reg.NewHistogram("javaflow_test_duration_seconds", "Latency.")
	h.Record(time.Millisecond)
	h.Record(time.Second)
	vec := reg.NewHistogramVec("javaflow_test_attempt_seconds", "Attempts.", "backend", "outcome")
	vec.With("b1", "ok").Record(time.Millisecond)
	vec.With("b1", "error").Record(time.Second)
	return reg
}

// testExposition renders the test snapshot, then the test registry, as
// the /metrics handler renders a node's snapshot and its histograms.
func testExposition() string {
	var b strings.Builder
	WriteSnapshot(&b, buildTestSnapshot())
	buildTestRegistry().WritePrometheus(&b)
	return b.String()
}

func TestWritePrometheusGrammar(t *testing.T) {
	out := testExposition()
	if out == "" {
		t.Fatal("empty exposition")
	}
	sc := bufio.NewScanner(strings.NewReader(out))
	lines := 0
	for sc.Scan() {
		line := sc.Text()
		lines++
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("line violates text-format grammar: %q", line)
		}
	}
	if lines < 10 {
		t.Fatalf("suspiciously short exposition (%d lines):\n%s", lines, out)
	}
}

func TestWritePrometheusContent(t *testing.T) {
	out := testExposition()

	for _, want := range []string{
		"# TYPE javaflow_test_requests_total counter",
		"javaflow_test_requests_total 42",
		"# TYPE javaflow_test_inflight gauge",
		"javaflow_test_inflight 3",
		`javaflow_test_backend_up{backend="http://peer:8080/with\"quote\\back\nline"} 1`,
		"# TYPE javaflow_test_duration_seconds histogram",
		`javaflow_test_duration_seconds_bucket{le="+Inf"} 2`,
		"javaflow_test_duration_seconds_count 2",
		`javaflow_test_attempt_seconds_bucket{backend="b1",outcome="ok",le="+Inf"} 1`,
		`javaflow_test_attempt_seconds_count{backend="b1",outcome="error"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}

	// Histogram buckets must be cumulative and end at the count.
	if !strings.Contains(out, "javaflow_test_duration_seconds_sum 1.001") {
		t.Errorf("histogram _sum not in seconds:\n%s", out)
	}
}

func TestRegistryReplaceSemantics(t *testing.T) {
	reg := NewRegistry()
	h1 := reg.NewHistogram("javaflow_test_h_seconds", "H.")
	h2 := reg.NewHistogram("javaflow_test_h_seconds", "H.")
	if h1 != h2 {
		t.Error("re-registering a histogram should return the same instrument")
	}
	v1 := reg.NewHistogramVec("javaflow_test_v_seconds", "V.", "peer")
	v2 := reg.NewHistogramVec("javaflow_test_v_seconds", "V.", "peer")
	if v1 != v2 {
		t.Error("re-registering a histogram vec should return the same instrument")
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	if n := strings.Count(b.String(), "# TYPE javaflow_test_h_seconds "); n != 1 {
		t.Fatalf("histogram family rendered %d times after re-registration:\n%s", n, b.String())
	}
}

// TestWriteSnapshot covers the snapshot walk: embedded and info blocks,
// slice elements as labelled series with each family contiguous, hostile
// label values escaped, nil blocks and untagged fields skipped.
func TestWriteSnapshot(t *testing.T) {
	var b strings.Builder
	WriteSnapshot(&b, buildTestSnapshot())
	want := `# HELP javaflow_test_requests_total Requests.
# TYPE javaflow_test_requests_total counter
javaflow_test_requests_total 42
# HELP javaflow_test_inflight In flight.
# TYPE javaflow_test_inflight gauge
javaflow_test_inflight 3
# HELP javaflow_test_build_info Build metadata as labels.
# TYPE javaflow_test_build_info gauge
javaflow_test_build_info{version="v1",engine="1"} 1
# HELP javaflow_test_backend_up Backend liveness.
# TYPE javaflow_test_backend_up gauge
javaflow_test_backend_up{backend="http://peer:8080/with\"quote\\back\nline"} 1
javaflow_test_backend_up{backend="b2"} 0
# HELP javaflow_test_backend_jobs_total Jobs per backend.
# TYPE javaflow_test_backend_jobs_total counter
javaflow_test_backend_jobs_total{backend="http://peer:8080/with\"quote\\back\nline"} 5
javaflow_test_backend_jobs_total{backend="b2"} 7
`
	if b.String() != want {
		t.Fatalf("WriteSnapshot:\n%s\nwant:\n%s", b.String(), want)
	}

	// A block behind a pointer or an interface renders once it is set;
	// the walk follows a pointer to the snapshot itself too.
	snap := buildTestSnapshot()
	snap.Extra = &testCounts{Requests: 1}
	snap.Any = &testBackend{Name: "b3", Jobs: 2}
	snap.Backends = nil
	b.Reset()
	WriteSnapshot(&b, &snap)
	for _, line := range []string{"javaflow_test_requests_total 42\njavaflow_test_requests_total 1\n",
		`javaflow_test_backend_jobs_total{backend="b3"} 2`} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("set optional blocks: missing %q in\n%s", line, b.String())
		}
	}

	for _, v := range []any{nil, (*testSnapshot)(nil), testSnapshot{}.Any} {
		b.Reset()
		WriteSnapshot(&b, v)
		if b.Len() != 0 {
			t.Errorf("WriteSnapshot(%#v) = %q, want nothing", v, b.String())
		}
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var reg *Registry
	h := reg.NewHistogram("h_seconds", "H.")
	if h == nil {
		t.Fatal("nil registry must return a functional histogram")
	}
	h.Record(time.Millisecond)
	if h.Snapshot().Count != 1 {
		t.Error("unregistered histogram should still record")
	}
	v := reg.NewHistogramVec("v_seconds", "V.", "k")
	if v == nil || v.With("a") == nil {
		t.Fatal("nil registry must return a functional histogram vec")
	}
	reg.WritePrometheus(&strings.Builder{})
}

func TestRuntimeMetricsRegistered(t *testing.T) {
	var b strings.Builder
	WriteSnapshot(&b, ReadRuntimeStats())
	out := b.String()
	for _, want := range []string{"javaflow_goroutines", "javaflow_heap_alloc_bytes", "javaflow_heap_objects",
		"javaflow_gc_runs_total", "javaflow_gc_pause_seconds_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime metrics missing %q", want)
		}
	}
}
