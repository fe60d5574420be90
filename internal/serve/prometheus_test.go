package serve

import (
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"javaflow/internal/obs"
)

// promLine accepts one Prometheus text-format 0.0.4 sample line:
// name{label="value",...} value.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [^ ]+$`)

// TestMetricsPrometheusExposition drives real traffic through a service
// and checks that GET /metrics?format=prometheus emits grammatical text
// exposition covering every subsystem registered on the node.
func TestMetricsPrometheusExposition(t *testing.T) {
	ts, svc := testServer(t, 2)

	// Generate a sample first: one real run through the scheduler.
	resp, _ := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Config: "Hetero2", Method: svc.MethodInfos()[0].Signature,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed run: status %d", resp.StatusCode)
	}
	// Journal counters register lazily on the first emit of each
	// (subsystem, kind); seed one so javaflow_events_total is present.
	svc.Scheduler().Metrics().Journal().Emit("test", "probe", obs.SevInfo, "")

	res, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics?format=prometheus: status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Every non-comment line must match the exposition grammar.
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("ungrammatical exposition line: %q", line)
		}
	}

	// One registry covers every subsystem wired on this node.
	for _, name := range []string{
		"javaflow_http_requests_total",
		"javaflow_http_request_duration_seconds_bucket",
		"javaflow_http_request_duration_seconds_sum",
		"javaflow_http_request_duration_seconds_count",
		"javaflow_jobs_total",
		"javaflow_job_duration_seconds_bucket",
		"javaflow_jobs_inflight",
		"javaflow_cache_hits_total",
		"javaflow_engine_runs_total",
		"javaflow_engine_mesh_cycles_total",
		"javaflow_engine_delivered_total",
		"javaflow_engine_policy_runs_shared_total",
		"javaflow_trace_spans_total",
		"javaflow_events_total",
		"javaflow_goroutines",
		"javaflow_heap_alloc_bytes",
		"javaflow_build_info",
	} {
		if !strings.Contains(body, "\n"+name) && !strings.HasPrefix(body, name) {
			t.Errorf("exposition is missing %s", name)
		}
	}

	// The seeded run must be visible: at least one job counted, and the
	// histogram's +Inf bucket must agree with its _count.
	if !strings.Contains(body, `javaflow_http_request_duration_seconds_bucket{endpoint="POST /v1/run",le="+Inf"}`) {
		t.Error(`missing +Inf bucket for endpoint="POST /v1/run"`)
	}

	// build_info carries the build metadata as labels with a constant 1.
	buildInfo := regexp.MustCompile(`javaflow_build_info\{[^}]*engine_version="[0-9]+"[^}]*\} 1`)
	if !buildInfo.MatchString(body) {
		t.Error(`javaflow_build_info missing or missing its engine_version label`)
	}
	if !regexp.MustCompile(`javaflow_build_info\{[^}]*go_version="go[^"]+"[^}]*\} 1`).MatchString(body) {
		t.Error(`javaflow_build_info missing its go_version label`)
	}
}

// TestEndpointLabelsAreRoutePatterns: the per-endpoint histogram (and the
// server span) is labelled with the mux pattern that served the request —
// path parameters stay collapsed — and everything unrouted shares one
// "<METHOD> other" label, so hostile paths cannot mint label values.
func TestEndpointLabelsAreRoutePatterns(t *testing.T) {
	ts, _ := testServer(t, 1)
	for _, path := range []string{"/v1/configs", "/v1/scenarios/nope", "/debug/traces/zz", "/no/such/path", "/no/other/path", "/v1/run"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	res, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, m := range regexp.MustCompile(`_duration_seconds_count\{endpoint="([^"]*)"\}`).FindAllStringSubmatch(string(raw), -1) {
		labels[m[1]] = true
	}
	want := map[string]bool{
		"GET /v1/configs": true, "GET /v1/scenarios/{name}": true,
		"GET /debug/traces/{traceID}": true, "GET other": true, // two unknown paths and the wrong-method /v1/run
	}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("endpoint labels %v, want %v", labels, want)
	}
}
