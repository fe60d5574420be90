package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/obs"
	"javaflow/internal/sim"
)

// fleetNode builds one named test node: a service whose metrics carry a
// node name, served over httptest, the way jfserved names nodes by their
// advertise URL.
func fleetNode(t *testing.T, name string) (*httptest.Server, *Service) {
	t.Helper()
	methods := hostableMethods(t, 3)
	sched := NewScheduler(SchedulerOptions{
		Workers:       1,
		MaxMeshCycles: testMaxCycles,
		Metrics:       NewMetricsOpts(MetricsOptions{Node: name}),
	})
	svc := NewService(sched, sim.Configurations(), methods)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func getJSONBody(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("decode %s: %v (body %q)", url, err, body)
		}
	}
	return resp
}

// TestFleetTraceAssembledAcrossNodes drives a two-node trace — a real
// hop-0 request on the front, then the hop-1 leg on the backend carrying
// the front span's context, exactly as dispatch injects it — and asserts
// GET /v1/trace/{id} on EITHER node stitches both nodes' spans into one
// tree.
func TestFleetTraceAssembledAcrossNodes(t *testing.T) {
	frontTS, frontSvc := fleetNode(t, "node-front")
	backTS, backSvc := fleetNode(t, "node-back")
	frontSvc.SetFleet(NewFleet([]string{backTS.URL}, nil))
	backSvc.SetFleet(NewFleet([]string{frontTS.URL}, nil))

	// Hop 0: an untraced request at the front mints the root server span.
	resp, err := http.Get(frontTS.URL + "/v1/configs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var root obs.Span
	for _, sp := range frontSvc.Scheduler().Metrics().Tracer().Recent(10) {
		if sp.Name == "GET /v1/configs" {
			root = sp
		}
	}
	if root.TraceID == "" {
		t.Fatal("front recorded no server span for GET /v1/configs")
	}
	if root.Hop != 0 {
		t.Fatalf("front server span hop = %d, want 0", root.Hop)
	}

	// Hop 1: the backend leg carries the front span's context one wire
	// crossing deeper, the way obs.Inject stamps dispatched requests.
	req, _ := http.NewRequest(http.MethodGet, backTS.URL+"/v1/configs", nil)
	req.Header.Set(obs.TraceHeader, obs.TraceContext{
		TraceID: root.TraceID, SpanID: root.SpanID, Hop: 1,
	}.Header())
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	for _, from := range []struct{ name, url string }{
		{"front", frontTS.URL},
		{"back", backTS.URL},
	} {
		var at obs.AssembledTrace
		if r := getJSONBody(t, from.url+"/v1/trace/"+root.TraceID, &at); r.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/trace from %s: status %d", from.name, r.StatusCode)
		}
		if at.Partial {
			t.Errorf("assembly from %s: partial, want complete (nodes %+v)", from.name, at.Nodes)
		}
		if at.Spans != 2 {
			t.Fatalf("assembly from %s: %d spans, want 2", from.name, at.Spans)
		}
		if len(at.Roots) != 1 {
			t.Fatalf("assembly from %s: %d roots, want 1", from.name, len(at.Roots))
		}
		r := at.Roots[0]
		if r.Node != "node-front" || r.Hop != 0 {
			t.Errorf("assembly from %s: root on %q at hop %d, want node-front at hop 0", from.name, r.Node, r.Hop)
		}
		if len(r.Children) != 1 || r.Children[0].Node != "node-back" || r.Children[0].Hop != 1 {
			t.Errorf("assembly from %s: root children = %+v, want one node-back span at hop 1", from.name, r.Children)
		}
	}
}

// TestFleetTraceDeadPeerIsPartial asserts an unreachable peer marks the
// assembly partial — still HTTP 200, never an error — with the peer's
// failure on its node row.
func TestFleetTraceDeadPeerIsPartial(t *testing.T) {
	frontTS, frontSvc := fleetNode(t, "node-front")
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from now on
	frontSvc.SetFleet(NewFleet([]string{deadURL}, nil))

	// A local span so the trace exists on the live node.
	resp, err := http.Get(frontTS.URL + "/v1/configs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	spans := frontSvc.Scheduler().Metrics().Tracer().Recent(1)
	if len(spans) == 0 {
		t.Fatal("no local span recorded")
	}

	var at obs.AssembledTrace
	if r := getJSONBody(t, frontTS.URL+"/v1/trace/"+spans[0].TraceID, &at); r.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace: status %d, want 200 despite the dead peer", r.StatusCode)
	}
	if !at.Partial {
		t.Error("assembly with a dead peer not marked partial")
	}
	var deadErr string
	for _, n := range at.Nodes {
		if n.Node == deadURL {
			deadErr = n.Err
		}
	}
	if deadErr == "" {
		t.Errorf("dead peer %s missing its error in nodes %+v", deadURL, at.Nodes)
	}
}

// TestFleetTraceRejectsBadID asserts the path value is vetted before any
// fan-out.
func TestFleetTraceRejectsBadID(t *testing.T) {
	ts, _ := fleetNode(t, "node-a")
	// (Traversal-shaped IDs like "../x" never reach the handler — the
	// server's path cleaning 404s them first.)
	for _, bad := range []string{"xyz", "CAFE0123", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"} {
		resp, err := http.Get(ts.URL + "/v1/trace/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/trace/%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestFleetSnapshotMergesNodes drives one job on each of two nodes and
// asserts GET /v1/fleet sums the counters, merges the latency histograms
// losslessly, and reports per-node health — including a dead third peer
// marking the document partial without hiding the live rows.
func TestFleetSnapshotMergesNodes(t *testing.T) {
	frontTS, frontSvc := fleetNode(t, "node-front")
	backTS, backSvc := fleetNode(t, "node-back")
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	frontSvc.SetFleet(NewFleet([]string{backTS.URL, deadURL}, nil))

	for _, n := range []struct {
		ts  *httptest.Server
		svc *Service
	}{{frontTS, frontSvc}, {backTS, backSvc}} {
		resp, _ := postJSON(t, n.ts.URL+"/v1/run", RunRequest{
			Config: "Hetero2", Method: n.svc.MethodInfos()[0].Signature,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed run: status %d", resp.StatusCode)
		}
	}

	var snap FleetSnapshot
	if r := getJSONBody(t, frontTS.URL+"/v1/fleet", &snap); r.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/fleet: status %d", r.StatusCode)
	}
	if snap.NodesTotal != 3 || snap.NodesUp != 2 {
		t.Fatalf("nodes up/total = %d/%d, want 2/3", snap.NodesUp, snap.NodesTotal)
	}
	if !snap.Partial {
		t.Error("fleet snapshot with a dead peer not marked partial")
	}
	if snap.Fleet.Jobs < 2 {
		t.Errorf("fleet jobs = %d, want >= 2 (one per live node)", snap.Fleet.Jobs)
	}
	if snap.Fleet.P99LatencyMS <= 0 {
		t.Error("fleet p99 latency is zero after two jobs — histogram merge lost the samples")
	}
	byNode := make(map[string]FleetNodeHealth, len(snap.Nodes))
	for _, n := range snap.Nodes {
		byNode[n.Node] = n
	}
	for _, name := range []string{"node-front", "node-back"} {
		n, ok := byNode[name]
		if !ok || !n.Up || n.Metrics == nil {
			t.Fatalf("live node %s missing or down in %+v", name, snap.Nodes)
		}
		if n.Metrics.Jobs < 1 {
			t.Errorf("node %s reports %d jobs, want >= 1", name, n.Metrics.Jobs)
		}
	}
	if n := byNode[deadURL]; n.Up || n.Err == "" {
		t.Errorf("dead peer row = %+v, want down with an error", n)
	}
}

// TestFleetFanOutCarriesTraceAndDeadline pins that the two fleet fan-outs
// are ordinary peer hops: the request a peer receives from GET /v1/fleet
// and from GET /v1/trace/{id} joins the front's trace one hop deeper and
// announces the per-peer deadline.
func TestFleetFanOutCarriesTraceAndDeadline(t *testing.T) {
	type hop struct{ path, trace, deadline string }
	hops := make(chan hop, 2)
	peerTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hops <- hop{r.URL.Path, r.Header.Get(obs.TraceHeader), r.Header.Get(admit.DeadlineHeader)}
		_, _ = w.Write([]byte("{}"))
	}))
	defer peerTS.Close()
	frontTS, frontSvc := fleetNode(t, "node-front")
	frontSvc.SetFleet(NewFleet([]string{peerTS.URL}, nil))

	const traceID = "cafe0123cafe4567"
	for _, tc := range []struct{ get, wantPath string }{
		{"/v1/fleet", "/metrics"},
		{"/v1/trace/" + traceID, "/debug/traces/" + traceID},
	} {
		req, _ := http.NewRequest(http.MethodGet, frontTS.URL+tc.get, nil)
		req.Header.Set(obs.TraceHeader, obs.TraceContext{TraceID: traceID, SpanID: "00000000000000aa", Hop: 0}.Header())
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		h := <-hops
		if h.path != tc.wantPath {
			t.Fatalf("GET %s fanned out to %s, want %s", tc.get, h.path, tc.wantPath)
		}
		sent, ok := obs.ParseTrace(h.trace)
		if !ok || sent.TraceID != traceID || sent.Hop != 1 {
			t.Errorf("GET %s: peer saw trace header %q, want trace %s at hop 1", tc.get, h.trace, traceID)
		}
		if _, ok := admit.ParseDeadline(h.deadline, time.Now()); !ok {
			t.Errorf("GET %s: peer saw deadline header %q, want a parseable deadline", tc.get, h.deadline)
		}
	}
}

// TestDebugEventsEndpoint exercises the journal's HTTP surface: filtered
// reads, severity floors, and the validation contract.
func TestDebugEventsEndpoint(t *testing.T) {
	ts, svc := fleetNode(t, "node-a")
	j := svc.Scheduler().Metrics().Journal()
	j.Emit("dispatch", "suspension", obs.SevWarn, "cafe0123cafe4567", "backend", "http://b:1")
	j.Emit("replicate", "ingest", obs.SevInfo, "", "peer", "http://b:1")
	j.Emit("dispatch", "recovery", obs.SevInfo, "", "backend", "http://b:1")

	var dump obs.EventDump
	if r := getJSONBody(t, ts.URL+"/debug/events", &dump); r.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/events: status %d", r.StatusCode)
	}
	if dump.Node != "node-a" {
		t.Errorf("dump node = %q, want node-a", dump.Node)
	}
	if dump.Events < 3 || len(dump.Recent) < 3 {
		t.Fatalf("events = %d, recent = %d, want >= 3", dump.Events, len(dump.Recent))
	}
	if dump.Counts["dispatch/suspension"] != 1 {
		t.Errorf("countsByKind = %v, want dispatch/suspension = 1", dump.Counts)
	}

	// Subsystem and severity filters compose.
	if getJSONBody(t, ts.URL+"/debug/events?subsystem=dispatch&severity=warn", &dump); len(dump.Recent) != 1 {
		t.Fatalf("filtered dump = %+v, want exactly the suspension event", dump.Recent)
	}
	if e := dump.Recent[0]; e.Kind != "suspension" || e.TraceID != "cafe0123cafe4567" {
		t.Errorf("filtered event = %+v, want the suspension with its trace ID", e)
	}

	for _, bad := range []string{"?n=0", "?n=100000", "?severity=loud"} {
		resp, err := http.Get(ts.URL + "/debug/events" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /debug/events%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestDebugTracesByIDServesLocalSpans pins the per-trace local endpoint
// the fleet fan-out rides on: exactly this node's spans for the ID, no
// recursion.
func TestDebugTracesByIDServesLocalSpans(t *testing.T) {
	ts, svc := fleetNode(t, "node-a")
	resp, err := http.Get(ts.URL + "/v1/configs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	spans := svc.Scheduler().Metrics().Tracer().Recent(1)
	if len(spans) == 0 {
		t.Fatal("no span recorded")
	}

	var ns obs.NodeSpans
	if r := getJSONBody(t, ts.URL+"/debug/traces/"+spans[0].TraceID, &ns); r.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/{id}: status %d", r.StatusCode)
	}
	if ns.Node != "node-a" || len(ns.Spans) == 0 {
		t.Fatalf("node spans = %+v, want node-a with the recorded span", ns)
	}
	for _, sp := range ns.Spans {
		if sp.TraceID != spans[0].TraceID {
			t.Errorf("span %s from foreign trace %s leaked into the dump", sp.SpanID, sp.TraceID)
		}
	}

	// An unknown (but well-formed) ID is an empty span set, not an error.
	unknown := fmt.Sprintf("%016x", uint64(0xdead))
	if r := getJSONBody(t, ts.URL+"/debug/traces/"+unknown, &ns); r.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces unknown id: status %d", r.StatusCode)
	}
	if len(ns.Spans) != 0 {
		t.Errorf("unknown trace returned %d spans", len(ns.Spans))
	}
}
