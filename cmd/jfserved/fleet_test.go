package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/dispatch"
	"javaflow/internal/obs"
	"javaflow/internal/replicate"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
)

// output collects a node's stdout and stderr and sends the address its
// startup line names on ready. Read it only once run has returned.
type output struct {
	sync.Mutex
	bytes.Buffer
	ready chan string
}

func (o *output) Write(p []byte) (int, error) {
	o.Lock()
	defer o.Unlock()
	if _, addr, ok := strings.Cut(string(p), " — listening on "); ok {
		o.ready <- strings.TrimSpace(addr)
	}
	return o.Buffer.Write(p)
}

// startNode runs jfserved on a 40-method corpus and returns the base URL
// its startup line names. stop cancels it, as SIGTERM does, and requires
// a clean shutdown; it runs again at the end of the test.
func startNode(t *testing.T, args ...string) (base string, stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	out, done, code := &output{ready: make(chan string, 1)}, make(chan struct{}), 0
	go func() { code = run(ctx, append(args, "-gen", "40"), out, out); close(done) }()
	select {
	case addr := <-out.ready:
		base = "http://" + addr
	case <-done:
		t.Fatalf("jfserved %v exited %d:\n%s", args, code, out)
	}
	stop = func() {
		cancel()
		<-done
		if code != 0 || !strings.HasSuffix(out.String(), "jfserved: shut down cleanly\n") {
			t.Errorf("%s: exit %d without a clean shutdown:\n%s", base, code, out)
		}
	}
	t.Cleanup(stop)
	return base, stop
}

// call sends one request and requires a 200. It decodes the body into v
// unless v is nil, and returns it.
func call(t *testing.T, method, url, body string, v any, header ...string) []byte {
	t.Helper()
	req, _ := http.NewRequest(method, url, strings.NewReader(body))
	for i := 0; i < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err == nil && v != nil {
		err = json.Unmarshal(out, v)
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d %v %s", method, url, resp.StatusCode, err, out)
	}
	return out
}

// metrics reads the part of a node's /metrics the tests check.
func metrics(t *testing.T, base string) (m struct {
	Node        string
	Dispatch    *dispatch.Stats
	Replication *replicate.Stats
	Admission   *admit.Stats
}) {
	call(t, "GET", base+"/metrics", "", &m)
	return m
}

// waitFor polls cond for up to a minute.
func waitFor(t *testing.T, what string, cond func() bool) {
	for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no %s within a minute", what)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/metrics_surface.golden from the current code")

// checkSurface compares a node's metrics surface with
// testdata/metrics_surface.golden. The surface is every "# HELP" and
// "# TYPE" line of the exposition and each sample's name{labels} without
// its value, plus every key path of the JSON /metrics document with array
// indexes collapsed to []. The node's own address becomes "self" and
// every peer's "peer", since the ring, not the test, picks which peer
// serves a given job. Label values that hang on the toolchain
// (build_info) or on timing (which journal kinds fired) are blanked. The
// lines are sorted and deduplicated. Regenerate with -update only for a
// deliberate change to the series or the JSON fields.
func checkSurface(t *testing.T, prom string, doc []byte, addrs []string) {
	t.Helper()
	var lines []string
	for _, line := range strings.Split(strings.TrimSuffix(prom, "\n"), "\n") {
		if !strings.HasPrefix(line, "# ") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		lines = append(lines, "prom "+line)
	}
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		if path != "" {
			lines = append(lines, "json "+path)
		}
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				walk(strings.TrimPrefix(path+"."+k, "."), e)
			}
		case []any:
			for _, e := range v {
				walk(path+"[]", e)
			}
		}
	}
	walk("", v)
	var names []string
	for i, a := range addrs {
		name := "peer"
		if i == 0 {
			name = "self"
		}
		names = append(names, "http://"+a, name, a, name)
	}
	out := strings.NewReplacer(names...).Replace(strings.Join(lines, "\n"))
	out = regexp.MustCompile(`(go_version|module_version|subsystem|kind)="[^"]*"`).ReplaceAllString(out, `$1=""`)
	lines = strings.Split(out, "\n")
	slices.Sort(lines)
	lines = slices.Compact(lines)
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "metrics_surface.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		wl := strings.Split(string(want), "\n")
		for _, l := range lines {
			if !slices.Contains(wl, l) {
				t.Errorf("surface gained %q", l)
			}
		}
		for _, l := range wl {
			if l != "" && !slices.Contains(lines, l) {
				t.Errorf("surface lost %q", l)
			}
		}
	}
}

// sampleLine is TestWritePrometheusGrammar's rule for a sample line.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? [^ ]+$`)

// TestFleet boots jfserved nodes in process through run: three in a full
// mesh with an hour-long pull interval, each sweeping one configuration,
// then one restarted alone. It checks only what takes real daemons
// (TestWireGolden pins the bytes): node 0 fronts nodes 1 and 2 cleanly and
// its trace spans and assembles across them; /v1/fleet reads 3/3; the
// sweeps converge by push alone and serve byte-identically with no engine
// run; the exposition is whole; a restart on port 0 with -run-cap 2 serves
// warm, names its bound port and reports the cap.
func TestFleet(t *testing.T) {
	addrs := make([]string, 3) // a mesh needs every address before any node starts
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	nodes, dirs, stops := make([]string, 3), make([]string, 3), make([]func(), 3)
	for i := range addrs {
		dirs[i] = t.TempDir()
		nodes[i], stops[i] = startNode(t, "-addr", addrs[i], "-store-dir", dirs[i], "-replicate-interval", "1h",
			"-peers", "http://"+addrs[(i+1)%3]+",http://"+addrs[(i+2)%3])
	}
	for _, n := range nodes {
		waitFor(t, n+" startup pull round", func() bool { return metrics(t, n).Replication.Rounds == 1 })
	}

	// Each sweep has its own client trace. Each run or timed-out job is one
	// stored record; the three configurations share no store key.
	const trace = "cafe0123cafe4560" // node 0's
	want := 0
	for i, cfg := range []string{"Compact2", "Hetero2", "Baseline"} {
		var resp serve.BatchResponse
		call(t, "POST", nodes[i]+"/v1/batch", `{"configs":["`+cfg+`"],"summaryOnly":true}`, &resp,
			"X-Javaflow-Trace", fmt.Sprintf("cafe0123cafe456%d-00000000000000aa-0", i))
		want += resp.Results[0].Summary.Methods + resp.Results[0].Summary.TimedOut
	}
	d := metrics(t, nodes[0]).Dispatch
	if d.Backends[0].Jobs < 1 || d.Backends[1].Jobs < 1 || d.Retries != 0 || d.LocalFallbacks != 0 {
		t.Errorf("node 0's sweep: %+v; want jobs on both backends, 0 retries, 0 local fallbacks", d)
	}
	spans := func(base string, hop int) (count int) {
		var dump obs.TraceDump
		call(t, "GET", base+"/debug/traces?n=512", "", &dump)
		for _, s := range dump.Recent {
			if s.TraceID == trace && s.Hop == hop {
				count++
			}
		}
		return count
	}
	if spans(nodes[0], 0) < 1 || spans(nodes[1], 1)+spans(nodes[2], 1) < 1 {
		t.Errorf("trace %s: no hop-0 span on node 0 or no hop-1 span on a backend", trace)
	}
	var asm obs.AssembledTrace
	call(t, "GET", nodes[0]+"/v1/trace/"+trace, "", &asm)
	withSpans := 0
	for _, n := range asm.Nodes {
		if n.Spans > 0 {
			withSpans++
		}
	}
	if asm.Partial || withSpans < 2 {
		t.Errorf("assembled trace: partial %v, spans from %d nodes; want whole, from >= 2", asm.Partial, withSpans)
	}
	var fleet serve.FleetSnapshot
	if call(t, "GET", nodes[0]+"/v1/fleet", "", &fleet); fleet.NodesUp != 3 || fleet.NodesTotal != 3 || fleet.Partial {
		t.Errorf("/v1/fleet: %d/%d up, partial %v; want 3/3", fleet.NodesUp, fleet.NodesTotal, fleet.Partial)
	}
	pulls := int64(0)
	for _, n := range nodes {
		waitFor(t, n+" convergence", func() bool {
			var rep store.AdminReport
			call(t, "GET", n+"/v1/store", "", &rep)
			return rep.Records-rep.MetaRecords == want
		})
		r := metrics(t, n).Replication
		if r.Rounds != 1 {
			t.Errorf("%s ran %d pull rounds; push alone should have converged it", n, r.Rounds)
		}
		pulls += r.Gossip.PullsTriggered
	}
	if pulls < 1 {
		t.Error("converged without a rumour-triggered pull")
	}
	prom := string(call(t, "GET", nodes[0]+"/metrics?format=prometheus", "", nil))
	for _, line := range strings.Split(strings.TrimSuffix(prom, "\n"), "\n") {
		if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") && !sampleLine.MatchString(line) {
			t.Errorf("exposition line violates the text-format grammar: %q", line)
		}
	}
	for _, name := range strings.Fields(`http_requests_total jobs_total job_duration_seconds_bucket
		cache_hits_total store_records store_garbage_ratio dispatch_retries_total
		dispatch_attempt_duration_seconds_count replicate_rounds_total gossip_rumors_sent_total
		admit_rejections_total engine_mesh_cycles_total goroutines`) {
		if !strings.Contains(prom, "\njavaflow_"+name) {
			t.Errorf("exposition has no javaflow_%s series", name)
		}
	}
	checkSurface(t, prom, call(t, "GET", nodes[0]+"/metrics", "", nil), addrs)

	// 8 methods × 3 configurations, served by each node from its own store
	// (the dispatched header keeps the run local), then after the restart.
	var methods []serve.MethodInfo
	call(t, "GET", nodes[0]+"/v1/methods", "", &methods)
	served := map[string][]byte{}
	serveAll := func(ns ...string) {
		before := sim.TotalEngineStats() // process-wide: every node's runs
		for _, cfg := range []string{"Compact2", "Hetero2", "Baseline"} {
			for _, m := range methods[:8] {
				req := `{"config":"` + cfg + `","method":"` + m.Signature + `"}`
				for _, n := range ns {
					body := call(t, "POST", n+"/v1/run", req, nil, "X-Javaflow-Dispatched", "1")
					if first, ok := served[req]; ok && !bytes.Equal(body, first) {
						t.Fatalf("%s serves %s differently:\n%s\nvs\n%s", n, req, body, first)
					}
					served[req] = body
				}
			}
		}
		if after := sim.TotalEngineStats(); after.Runs != before.Runs || after.PolicyRunsShared != before.PolicyRunsShared {
			t.Fatalf("serving stored results ran the engine %d times", after.Runs-before.Runs)
		}
	}
	serveAll(nodes...)
	stops[0]()
	restarted, _ := startNode(t, "-addr", "127.0.0.1:0", "-store-dir", dirs[0], "-run-cap", "2")
	serveAll(restarted)
	m := metrics(t, restarted)
	if c := m.Admission.Classes[0]; m.Node != restarted || c.Class != admit.ClassRun || c.Cap != 2 || c.Depth != 0 {
		t.Errorf("node on %s: name %q, first admission class %+v; want its URL, run with cap 2, depth 0", restarted, m.Node, c)
	}
}
