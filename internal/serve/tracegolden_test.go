package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"javaflow/internal/classfile"
	"javaflow/internal/obs"
	"javaflow/internal/sim"
	"javaflow/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestObservabilityGolden pins the wire shape of the tracing and event
// endpoints — GET /debug/traces, /debug/traces/{id}, /v1/trace/{id} and
// /debug/events — after a fixed request set through NewHandler on one
// worker: a cold and a warm /v1/run, a fabric-rejected method, a 404, a
// two-method /v1/batch, and a /v1/run that arrives at hop 1 with an
// inbound X-Javaflow-Trace, then a store compaction for the journal to
// record. Every request is served synchronously, so the
// spans land in a fixed order. IDs become first-seen ordinals, times and
// durations are zeroed, and the slowest section is sorted; everything else
// is byte-for-byte. Regenerate with -update only for a deliberate format
// change.
func TestObservabilityGolden(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	methods := hostableMethods(t, 2)
	rejected := rejectedMethod(t)
	sched := NewScheduler(SchedulerOptions{
		Workers:       1,
		MaxMeshCycles: testMaxCycles,
		Store:         st,
		Metrics:       NewMetricsOpts(MetricsOptions{Node: "node-golden"}),
	})
	st.SetJournal(sched.Metrics().Journal())
	handler := NewHandler(NewService(sched, sim.Configurations(), append(methods, rejected)))
	do := func(method, path, body string, header http.Header) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader([]byte(body)))
		for k, v := range header {
			req.Header[k] = v
		}
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		return w
	}
	run := func(cfg string, m *classfile.Method) string {
		return `{"config":"` + cfg + `","method":"` + m.Signature() + `"}`
	}

	const inboundTrace = "0123456789abcdef0123456789abcdef"
	for _, r := range []struct {
		path, body string
		header     http.Header
		status     int
	}{
		{"/v1/run", run("Compact2", methods[0]), nil, http.StatusOK},                // cold
		{"/v1/run", run("Compact2", methods[0]), nil, http.StatusOK},                // warm
		{"/v1/run", run("Compact2", rejected), nil, http.StatusUnprocessableEntity}, // fabric-rejected
		{"/v1/run", `{"config":"Compact2","method":"no/such/Method.m/0"}`, nil, http.StatusNotFound},
		{"/v1/batch", `{"configs":["Baseline","Hetero2"],"methods":["` + methods[0].Signature() + `","` +
			methods[1].Signature() + `"],"summaryOnly":true}`, nil, http.StatusOK},
		{"/v1/run", run("Hetero2", methods[1]), http.Header{obs.TraceHeader: {inboundTrace + "-00000000000000aa-1"}}, http.StatusOK},
		{"/v1/store/compact", "", nil, http.StatusOK}, // a journal event with two attributes
	} {
		if w := do(http.MethodPost, r.path, r.body, r.header); w.Code != r.status {
			t.Fatalf("POST %s %s: status %d, want %d: %s", r.path, r.body, w.Code, r.status, w.Body)
		}
	}

	get := func(path string) any {
		w := do(http.MethodGet, path, "", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, w.Code, w.Body)
		}
		var doc any
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return doc
	}
	traces := get("/debug/traces")
	var batchTrace string
	for _, sp := range traces.(map[string]any)["recent"].([]any) {
		if sp := sp.(map[string]any); sp["name"] == "POST /v1/batch" {
			batchTrace = sp["traceId"].(string)
		}
	}
	if batchTrace == "" {
		t.Fatal("no POST /v1/batch span in /debug/traces")
	}
	docs := []struct {
		path, id string // the endpoint, and the trace ID it names, if any
		doc      any
	}{
		{"/debug/traces", "", traces},
		{"/debug/traces/", batchTrace, get("/debug/traces/" + batchTrace)},
		{"/v1/trace/", batchTrace, get("/v1/trace/" + batchTrace)},
		{"/debug/traces/", inboundTrace, get("/debug/traces/" + inboundTrace)},
		{"/v1/trace/", inboundTrace, get("/v1/trace/" + inboundTrace)},
		{"/debug/events", "", get("/debug/events")},
	}

	n := normaliser{ids: map[string]string{}}
	var out bytes.Buffer
	for _, d := range docs {
		doc := n.walk(d.doc)
		if m, ok := doc.(map[string]any); ok && m["slowest"] != nil {
			slowest := m["slowest"].([]any)
			sort.Slice(slowest, func(i, j int) bool {
				a, _ := json.Marshal(slowest[i])
				b, _ := json.Marshal(slowest[j])
				return string(a) < string(b)
			})
		}
		body, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString("GET " + d.path + n.id(d.id) + "\n")
		out.Write(body)
		out.WriteString("\n\n")
	}

	golden := filepath.Join("testdata", "observability.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run TestObservabilityGolden -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got := filepath.Join(t.TempDir(), "observability.golden")
		os.WriteFile(got, out.Bytes(), 0o644)
		t.Errorf("observability endpoints differ from %s; got written to %s", golden, got)
	}
}

// normaliser rewrites one run's observability JSON into a stable form:
// trace and span IDs become first-seen ordinals, times and durations 0.
type normaliser struct{ ids map[string]string }

func (n normaliser) id(s string) string {
	if s == "" {
		return ""
	}
	if o, ok := n.ids[s]; ok {
		return o
	}
	o := "id" + strconv.Itoa(len(n.ids)+1)
	n.ids[s] = o
	return o
}

func (n normaliser) walk(v any) any {
	switch v := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch k {
			case "traceId", "spanId", "parentId":
				v[k] = n.id(v[k].(string))
			case "startUnixNano", "durationNs", "timeUnixNano":
				v[k] = 0
			default:
				v[k] = n.walk(v[k])
			}
		}
	case []any:
		for i := range v {
			v[i] = n.walk(v[i])
		}
	}
	return v
}
