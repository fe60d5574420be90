package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"unicode/utf8"

	"javaflow/internal/fabric"
	"javaflow/internal/sim"
	"javaflow/internal/store"
	"javaflow/internal/workload"
)

// referenceJSON is what writeJSON emits: the encoding the hand-rolled
// RunPayload appender must reproduce byte for byte.
func referenceJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

func postRun(h http.Handler, cfg, sig string) *httptest.ResponseRecorder {
	body, _ := json.Marshal(RunRequest{Config: cfg, Method: sig})
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	return w
}

// TestRunPayloadJSONMatchesEncodingJSON is the /v1/run byte-identity
// contract: for every corpus method on all six configurations the response
// body equals encoding/json's rendering of the same payload (fabric
// rejections keep their 422 envelope), cold from the engine and warm from
// the store in a second process life.
func TestRunPayloadJSONMatchesEncodingJSON(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	methods := workload.Corpus(2014, 40)
	configs := sim.Configurations()
	newLife := func() (*Service, http.Handler) {
		sched := NewScheduler(SchedulerOptions{Workers: 2, MaxMeshCycles: testMaxCycles, Store: st})
		svc := NewService(sched, configs, methods)
		return svc, NewHandler(svc)
	}

	svc, handler := newLife()
	cold := make(map[string][]byte)
	ok, rejected := 0, 0
	for _, cfg := range configs {
		for _, m := range methods {
			w := postRun(handler, cfg.Name, m.Signature())
			payload, err := svc.RunLocal(context.Background(), cfg.Name, m.Signature(), 0)
			var want []byte
			var le *fabric.LoadError
			switch {
			case err == nil:
				ok++
				want = referenceJSON(t, payload)
				if w.Code != http.StatusOK {
					t.Fatalf("%s on %s: status %d, want 200", m.Signature(), cfg.Name, w.Code)
				}
			case errors.As(err, &le):
				rejected++
				want = referenceJSON(t, ErrorPayload{Error: le.Error(), Kind: ErrKindRejected, Method: le.Method, Reason: le.Reason})
				if w.Code != http.StatusUnprocessableEntity {
					t.Fatalf("%s on %s: status %d, want 422", m.Signature(), cfg.Name, w.Code)
				}
			default:
				t.Fatalf("%s on %s: %v", m.Signature(), cfg.Name, err)
			}
			if !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("%s on %s: body differs from encoding/json:\n got %q\nwant %q", m.Signature(), cfg.Name, w.Body.Bytes(), want)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%s on %s: Content-Type %q", m.Signature(), cfg.Name, ct)
			}
			cold[cfg.Name+"|"+m.Signature()] = w.Body.Bytes()
		}
	}
	if ok == 0 || rejected != len(configs) {
		t.Fatalf("%d runs, %d rejections: want runs and the lookupswitch method rejected once per configuration (%d)", ok, rejected, len(configs))
	}

	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	_, handler = newLife()
	hits := st.Stats().RunHits
	for _, cfg := range configs {
		for _, m := range methods {
			if got := postRun(handler, cfg.Name, m.Signature()).Body.Bytes(); !bytes.Equal(got, cold[cfg.Name+"|"+m.Signature()]) {
				t.Fatalf("%s on %s: warm body differs from cold:\n got %q\nwant %q", m.Signature(), cfg.Name, got, cold[cfg.Name+"|"+m.Signature()])
			}
		}
	}
	if got := st.Stats().RunHits - hits; got != int64(ok) {
		t.Fatalf("warm life: %d store hits, want %d (every accepted run)", got, ok)
	}
}

// edgeStrings are the string escaping cases the corpus does not contain.
var edgeStrings = []string{
	"", "plain/Class.method/2", "a/B.<init>/0", "x>y", "a&b", `say "hi"`, `back\slash`,
	"ctl\x01\n\t\r", "del\x7f", "naïve/é.ü/1", "日本語", "\u2028\u2029", "\xff\xfe invalid", "half\xc3",
}

// TestRunPayloadJSONEdgeCases pins the string escaping and float format
// cases the corpus does not contain.
func TestRunPayloadJSONEdgeCases(t *testing.T) {
	floats := []float64{0, 1e-7, 1e21, 1.0 / 3, 1e-6, 9.99e-7, 1e20, 123456789.125, 1e-100, 1e300, math.Copysign(0, -1), -2.5, math.MaxFloat64, math.SmallestNonzeroFloat64}
	for _, s := range edgeStrings {
		for _, f := range floats {
			p := RunPayload{
				Signature: s, Config: s, MeanIPC: f,
				BP1: sim.Result{Config: s, Signature: s, Policy: sim.BP1, Fired: 1, Distinct: -2, Static: math.MaxInt64, MeshCycles: math.MinInt64, TimedOut: true},
				BP2: sim.Result{Policy: sim.BP2, ParallelCycles: 7, BusyCycles: 8, MaxNode: 9},
			}
			if got, want := appendRunPayload(nil, p), referenceJSON(t, p); !bytes.Equal(got, want) {
				t.Errorf("%q / %v:\n got %q\nwant %q", s, f, got, want)
			}
		}
	}
}

// FuzzRunPayloadJSON: arbitrary strings, ints and a finite float render
// exactly as encoding/json renders them, and the bytes decode back to the
// payload (strings that are not valid UTF-8 come back with U+FFFD, as they
// do from encoding/json).
func FuzzRunPayloadJSON(f *testing.F) {
	f.Add("scimark/fft/FFT.bitreverse/1", "Hetero2", 0.3333333333333333, 120, 3400, 17, false)
	f.Add("a/B.<init>/0", "x&y", 1e-7, -1, 0, 255, true)
	f.Add("\xff\"\\\n", "\u2028", 1e21, math.MaxInt64, math.MinInt64, 1, true)
	f.Fuzz(func(t *testing.T, sig, cfg string, ipc float64, fired, cycles, policy int, timedOut bool) {
		if math.IsNaN(ipc) || math.IsInf(ipc, 0) {
			t.Skip("encoding/json rejects non-finite floats; MeanIPC is finite by construction")
		}
		p := RunPayload{
			Signature: sig, Config: cfg, MeanIPC: ipc,
			BP1: sim.Result{Config: cfg, Signature: sig, Policy: sim.BranchPolicy(policy), Fired: fired, Distinct: cycles, Static: fired, MeshCycles: cycles, TimedOut: timedOut},
			BP2: sim.Result{Config: sig, Signature: cfg, ParallelCycles: cycles, BusyCycles: fired, MaxNode: policy, TimedOut: !timedOut},
		}
		got := appendRunPayload(nil, p)
		if want := referenceJSON(t, p); !bytes.Equal(got, want) {
			t.Fatalf("differs from encoding/json:\n got %q\nwant %q", got, want)
		}
		var back RunPayload
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("does not decode: %v\n%q", err, got)
		}
		if utf8.ValidString(sig) && utf8.ValidString(cfg) && back != p {
			t.Fatalf("round trip:\n got %+v\nwant %+v", back, p)
		}
	})
}

// TestAppendRunRequestMatchesMarshal: the body a dispatch front sends a
// peer is json.Marshal's, for every corpus job and for the strings and
// bounds the corpus does not contain; and /v1/run reads every corpus job's
// body without reflection.
func TestAppendRunRequestMatchesMarshal(t *testing.T) {
	for _, cfg := range sim.Configurations() {
		for _, m := range workload.Corpus(2014, 40) {
			for _, n := range []int{0, testMaxCycles, sim.DefaultMaxMeshCycles} {
				req := RunRequest{Config: cfg.Name, Method: m.Signature(), MaxMeshCycles: n}
				body := AppendRunRequest(nil, req)
				if want, _ := json.Marshal(req); !bytes.Equal(body, want) {
					t.Fatalf("%+v:\n got %s\nwant %s", req, body, want)
				}
				if got, ok := parseRunRequest(body); !ok || got != req {
					t.Fatalf("%s: parsed %+v (ok %v)", body, got, ok)
				}
			}
		}
	}
	for _, s := range edgeStrings {
		for _, n := range []int{0, 1, -1, math.MaxInt64, math.MinInt64} {
			req := RunRequest{Config: s, Method: s, MaxMeshCycles: n}
			if got, want := AppendRunRequest([]byte("prefix"), req), append([]byte("prefix"), mustMarshal(t, req)...); !bytes.Equal(got, want) {
				t.Errorf("%q / %d:\n got %q\nwant %q", s, n, got, want)
			}
		}
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzRunRequestDecode holds readRunRequest to decodeJSON on any body: the
// same accept or reject, the same RunRequest, and the same status and
// error body. A body the reflection-free parser takes is one encoding/json
// decodes to the same value.
func FuzzRunRequestDecode(f *testing.F) {
	f.Add([]byte(`{"config":"Compact2","method":"scimark/fft/FFT.bitreverse/1"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		read := func(decode func(http.ResponseWriter, *http.Request) (RunRequest, bool)) (RunRequest, bool, *httptest.ResponseRecorder) {
			w := httptest.NewRecorder()
			req, ok := decode(w, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
			return req, ok, w
		}
		got, gotOK, gw := read(readRunRequest)
		want, wantOK, ww := read(func(w http.ResponseWriter, r *http.Request) (RunRequest, bool) {
			var req RunRequest
			ok := decodeJSON(w, r.Body, &req)
			return req, ok
		})
		if gotOK != wantOK || got != want {
			t.Fatalf("%q: readRunRequest %+v (ok %v), decodeJSON %+v (ok %v)", body, got, gotOK, want, wantOK)
		}
		if gw.Code != ww.Code || !bytes.Equal(gw.Body.Bytes(), ww.Body.Bytes()) {
			t.Fatalf("%q: answered %d %q, decodeJSON %d %q", body, gw.Code, gw.Body.Bytes(), ww.Code, ww.Body.Bytes())
		}
		if req, ok := parseRunRequest(body); ok && (!wantOK || req != want) {
			t.Fatalf("%q: parsed %+v, encoding/json %+v (ok %v)", body, req, want, wantOK)
		}
	})
}
