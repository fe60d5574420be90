package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
	"javaflow/internal/workload"
)

// newFront builds a dispatch front over methods: a service whose /v1/run
// and /v1/batch flow through d, as jfserved -peers wires it.
func newFront(d *Dispatcher, methods []*classfile.Method) http.Handler {
	svc := serve.NewService(d.local, sim.Configurations(), methods)
	svc.SetBatchRunner(d)
	return serve.NewHandler(svc)
}

// postRun sends one POST /v1/run for (cfg, sig) to h in process.
func postRun(h http.Handler, cfg, sig string) (int, []byte) {
	body, _ := json.Marshal(serve.RunRequest{Config: cfg, Method: sig})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// postRunURL sends one POST /v1/run for (cfg, sig) to a node over HTTP.
func postRunURL(t *testing.T, base, cfg, sig string) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(serve.RunRequest{Config: cfg, Method: sig})
	resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// indentJSON is v as serve's writeJSON renders it: the bytes serve's
// TestRunPayloadJSONMatchesEncodingJSON holds appendRunPayload to.
func indentJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRelayMatchesBackendAndLocal: a dispatched POST /v1/run answers with
// the backend's bytes. Over Corpus(2014, 40) × the six configurations the
// front's body equals the owning backend's own answer and the local
// rendering of RunLocal — 422 envelopes included — and every job was
// served remotely, first time.
func TestRelayMatchesBackendAndLocal(t *testing.T) {
	methods := workload.Corpus(2014, 40)
	ts1, _ := newPeer(t, methods)
	ts2, _ := newPeer(t, methods)
	peers := []string{ts1.URL, ts2.URL}
	d, err := New(Options{Peers: peers, Local: newLocalScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	front := newFront(d, methods)
	ref := serve.NewService(newLocalScheduler(), sim.Configurations(), methods)

	ok, rejected := 0, 0
	for _, cfg := range sim.Configurations() {
		for _, m := range methods {
			sig := m.Signature()
			code, got := postRun(front, cfg.Name, sig)
			directCode, direct := postRunURL(t, peers[d.ring.owner(sig, nil)], cfg.Name, sig)
			payload, err := ref.RunLocal(context.Background(), cfg.Name, sig, 0)
			var want []byte
			var le *fabric.LoadError
			switch {
			case err == nil:
				ok++
				want = indentJSON(t, payload)
			case errors.As(err, &le):
				rejected++
				want = indentJSON(t, serve.ErrorPayload{Error: le.Error(), Kind: serve.ErrKindRejected, Method: le.Method, Reason: le.Reason})
			default:
				t.Fatalf("%s on %s: %v", sig, cfg.Name, err)
			}
			if code != directCode || !bytes.Equal(got, direct) {
				t.Fatalf("%s on %s: front answered %d %q, backend %d %q", sig, cfg.Name, code, got, directCode, direct)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s on %s: front body differs from the local rendering:\n got %q\nwant %q", sig, cfg.Name, got, want)
			}
		}
	}
	if ok == 0 || rejected != len(sim.Configurations()) {
		t.Fatalf("%d runs, %d rejections: want runs and the lookupswitch method rejected once per configuration", ok, rejected)
	}
	st := d.Stats()
	if st.Retries != 0 || st.LocalFallbacks != 0 {
		t.Fatalf("healthy relay used retries/fallbacks: %+v", st)
	}
	if n := st.Backends[0].Jobs + st.Backends[1].Jobs; n != int64(ok+rejected) || st.Backends[0].Errors+st.Backends[1].Errors != 0 {
		t.Fatalf("backends served %d jobs of %d: %+v", n, ok+rejected, st)
	}
}

// TestRelayRejectsMalformedPeerBody: a peer that answers 200 with a body
// that is not the asked job's document — cut short, another method's,
// another configuration's — fails the shape check. That is one backend
// error, and the client still gets the right bytes: from the retry on the
// healthy peer or, with no other peer, from the local fallback.
func TestRelayRejectsMalformedPeerBody(t *testing.T) {
	cfg, other := testConfig(t, "Compact2"), testConfig(t, "Hetero2")
	var methods []*classfile.Method
	for _, m := range workload.NamedMethods() {
		if _, err := sim.DeployMethod(cfg, m); err != nil {
			continue
		}
		if _, err := sim.DeployMethod(other, m); err == nil {
			methods = append(methods, m)
		}
	}
	good, goodSvc := newPeer(t, methods)
	honest := serve.NewHandler(goodSvc)
	answer := func(cfgName, sig string) []byte {
		code, body := postRun(honest, cfgName, sig)
		if code != http.StatusOK {
			t.Fatalf("%s on %s: status %d", sig, cfgName, code)
		}
		return body
	}
	forgeries := map[string]func(req serve.RunRequest) []byte{
		"truncated": func(req serve.RunRequest) []byte {
			b := answer(req.Config, req.Method)
			return b[:len(b)/2]
		},
		"wrong signature": func(req serve.RunRequest) []byte {
			sig := methods[0].Signature()
			if sig == req.Method {
				sig = methods[1].Signature()
			}
			return answer(req.Config, sig)
		},
		"wrong config": func(req serve.RunRequest) []byte { return answer(other.Name, req.Method) },
	}
	for name, forge := range forgeries {
		t.Run(name, func(t *testing.T) {
			bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var req serve.RunRequest
				_ = json.NewDecoder(r.Body).Decode(&req)
				_, _ = w.Write(forge(req))
			}))
			defer bad.Close()
			for _, peers := range [][]string{{bad.URL, good.URL}, {bad.URL}} {
				d, err := New(Options{Peers: peers, Local: newLocalScheduler()})
				if err != nil {
					t.Fatal(err)
				}
				var m *classfile.Method
				for _, c := range methods {
					if d.ring.owner(c.Signature(), nil) == 0 {
						m = c
						break
					}
				}
				if m == nil {
					t.Fatal("the forging peer owns no method")
				}
				code, got := postRun(newFront(d, methods), cfg.Name, m.Signature())
				if want := answer(cfg.Name, m.Signature()); code != http.StatusOK || !bytes.Equal(got, want) {
					t.Fatalf("%d peers: front answered %d %q, want %q", len(peers), code, got, want)
				}
				st := d.Stats()
				if st.Backends[0].Errors != 1 || st.Backends[0].Jobs != 0 {
					t.Fatalf("%d peers: forging peer %+v, want 1 error and no job", len(peers), st.Backends[0])
				}
				if len(peers) == 2 && (st.Retries != 1 || st.LocalFallbacks != 0 || st.Backends[1].Jobs != 1) {
					t.Fatalf("want the healthy peer to serve the retry: %+v", st)
				}
				if len(peers) == 1 && st.LocalFallbacks != 1 {
					t.Fatalf("want one local fallback: %+v", st)
				}
			}
		})
	}
}

// TestRelayLongDocument: a /v1/run document over 2 KiB — net/http's
// chunking threshold when a handler sets no length — relays through a
// front like any other. The backend's 200 carries Content-Length, which
// serve.ReadRunBody requires, so the backend records no error.
func TestRelayLongDocument(t *testing.T) {
	cfg := testConfig(t, "Compact2")
	h := hostableMethod(t, cfg)
	long := &classfile.Method{
		Class: strings.Repeat("VeryLongPackageName/", 120) + "Holder", Name: h.Name,
		Argc: h.Argc, Instance: h.Instance, ReturnsValue: h.ReturnsValue,
		MaxLocals: h.MaxLocals, MaxStack: h.MaxStack, Code: h.Code, Pool: h.Pool,
	}
	methods := []*classfile.Method{long}
	ts, _ := newPeer(t, methods)
	d, err := New(Options{Peers: []string{ts.URL}, Local: newLocalScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	code, got := postRun(newFront(d, methods), cfg.Name, long.Signature())
	directCode, direct := postRunURL(t, ts.URL, cfg.Name, long.Signature())
	if directCode != http.StatusOK || len(direct) <= 2048 {
		t.Fatalf("backend answered %d with %d bytes, want a 200 over 2 KiB", directCode, len(direct))
	}
	if code != http.StatusOK || !bytes.Equal(got, direct) {
		t.Fatalf("front answered %d with %d bytes, backend %d with %d", code, len(got), directCode, len(direct))
	}
	st := d.Stats()
	if st.Backends[0].Errors != 0 || st.Backends[0].Jobs != 1 || st.Retries != 0 || st.LocalFallbacks != 0 {
		t.Fatalf("the long document did not relay cleanly: %+v", st)
	}
	t.Logf("relayed a %d-byte document", len(got))
}

// TestDispatchedRunAllocations gates what one dispatched POST /v1/run
// allocates in process — the front's handler, the hop over loopback and
// the backend serving a store hit — with the front's request and recorder
// reused (go1.24, linux/amd64): 188–189 when the front decoded the backend's
// body and rendered it again and both ends read and wrote the request with
// encoding/json, 153–154 with the relay and the reflection-free request
// codec, 122 over internal/peer's own transport with span IDs minted
// without fmt and Content-Length set on both 200s. It read 123–125 while
// the tracer re-sorted its slowest-span list with sort.Slice, which
// allocates each time a span makes the list, and how often that happens
// depends on timing. It reads 109 in ten idle runs and ten beside
// another test binary since spans are recorded the way journal events
// are, by value into a ring slot, with no attribute map or heap span.
// The gate leaves 3 for the backend's net/http server, whose allocations
// may differ across Go releases.
func TestDispatchedRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := testConfig(t, "Compact2")
	methods := []*classfile.Method{hostableMethod(t, cfg)}
	sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 1, MaxMeshCycles: testMaxCycles, Store: st})
	backend := httptest.NewServer(serve.NewHandler(serve.NewService(sched, sim.Configurations(), methods)))
	defer backend.Close()
	d, err := New(Options{Peers: []string{backend.URL}, Local: newLocalScheduler()})
	if err != nil {
		t.Fatal(err)
	}
	front := newFront(d, methods)

	body := []byte(`{"config":"Compact2","method":"` + methods[0].Signature() + `"}`)
	w := httptest.NewRecorder()
	reader := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/run", reader)
	post := func() {
		reader.Reset(body)
		w.Body.Reset()
		front.ServeHTTP(w, req)
	}
	post() // cold on the backend: runs the engine, fills its store
	hits := st.Stats().RunHits
	allocs := testing.AllocsPerRun(200, post)
	if w.Code != http.StatusOK || st.Stats().RunHits-hits < 200 {
		t.Fatalf("status %d, %d backend store hits: the measured requests were not warm hits", w.Code, st.Stats().RunHits-hits)
	}
	if s := d.Stats(); s.LocalFallbacks != 0 || s.Backends[0].Jobs < 201 {
		t.Fatalf("the measured requests did not all go to the backend: %+v", s)
	}
	if allocs > 112 {
		t.Errorf("dispatched POST /v1/run: %.0f allocations per request, want <= 112", allocs)
	}
	t.Logf("dispatched POST /v1/run: %.0f allocations per request", allocs)
}
