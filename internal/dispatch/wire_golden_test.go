package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"javaflow/internal/fabric"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
	"javaflow/internal/workload"
)

// The benchmark's lap, as bench/jobs.go builds it: jfserved's default
// corpus and mesh-cycle bound.
const (
	wireCorpusSeed = 2014
	wireMaxCycles  = 400_000
)

// wireGolden is the part of bench/golden.json the service's bytes answer
// to. The file belongs to the benchmark and is only read here.
type wireGolden struct {
	Seed       int64 `json:"seed"`
	Gen        int   `json:"gen"`
	LapMethods int   `json:"lap_methods"`
	Workloads  map[string]struct {
		Digest   string `json:"digest"`
		Rejected int    `json:"rejected_422_per_lap"`
	} `json:"workloads"`
}

// wireResponse is what a lap digest keeps of one reply.
type wireResponse struct {
	status int
	sum    [sha256.Size]byte
}

// lapDigest is bench/jobs.go's: every response's status and body SHA-256,
// in canonical job order, folded into one SHA-256.
func lapDigest(rs []wireResponse) string {
	h := sha256.New()
	var st [2]byte
	for _, r := range rs {
		binary.BigEndian.PutUint16(st[:], uint16(r.status))
		h.Write(st[:])
		h.Write(r.sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// post sends one POST to h in process.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

// runLap POSTs every job to h's /v1/run from two clients, as the benchmark
// does, and returns the replies in job order.
func runLap(h http.Handler, jobs []serve.Job) []wireResponse {
	rs := make([]wireResponse, len(jobs))
	var wg sync.WaitGroup
	for c := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(jobs); i += 2 {
				code, body := postRun(h, jobs[i].Config.Name, jobs[i].Method.Signature())
				rs[i] = wireResponse{status: code, sum: sha256.Sum256(body)}
			}
		}()
	}
	wg.Wait()
	return rs
}

// TestWireGolden holds the service's response bytes, in process, to the
// digests bench/run.sh checks against real daemons:
//
//   - run-cold: the /v1/run lap on a memory-only node, six 422s included;
//   - batch-sweep: the seed-ordered summary /v1/batch, which also fills a
//     store;
//   - run-warm: the /v1/run lap on that store once closed and reopened,
//     with no engine run;
//   - fleet-dispatch: the /v1/run lap through a dispatch front over two
//     HTTP backends, each on its own copy of the store.
//
// A dispatched /v1/batch must equal the local one line by line, and the
// front's NDJSON stream must carry the buffered batch's runs and
// summaries. A failed digest names the first job whose body is not
// encoding/json's rendering of its run. Under -race only the run-cold lap
// runs: the detector makes each lap about ten times slower.
func TestWireGolden(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "bench", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g wireGolden
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	methods := workload.Corpus(wireCorpusSeed, g.Gen)
	configs := sim.Configurations()
	var names []string
	for _, cfg := range configs {
		names = append(names, cfg.Name)
	}
	jobs := sweepJobs(t, names, methods[:g.LapMethods])
	// Every node shares one deployment cache: deployments are not what
	// this test pins, and redeploying the lap per node would double its
	// cost.
	cache := serve.NewDeploymentCache(0)
	newNode := func(st *store.Store) *serve.Service {
		sched := serve.NewScheduler(serve.SchedulerOptions{Cache: cache, MaxMeshCycles: wireMaxCycles, Store: st})
		return serve.NewService(sched, configs, methods)
	}
	check := func(name string, svc *serve.Service, rs []wireResponse) {
		t.Helper()
		want := g.Workloads[name]
		if got := lapDigest(rs); got != want.Digest {
			t.Fatalf("%s: lap digest %s, golden %s; %s", name, got, want.Digest, firstDrift(t, svc, jobs, rs))
		}
		rejected := 0
		for _, r := range rs {
			if r.status == http.StatusUnprocessableEntity {
				rejected++
			}
		}
		if rejected != want.Rejected {
			t.Fatalf("%s: %d 422s per lap, golden %d", name, rejected, want.Rejected)
		}
	}

	mem := newNode(nil)
	check("run-cold", mem, runLap(serve.NewHandler(mem), jobs))
	if raceEnabled {
		return
	}

	// batch-sweep: the summary batch bench/jobs.go sends, methods in the
	// seed's order, run on a node with an empty store.
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sweep := serve.BatchRequest{Configs: names, SummaryOnly: true}
	for _, p := range rand.New(rand.NewSource(g.Seed)).Perm(g.LapMethods) {
		sweep.Methods = append(sweep.Methods, methods[p].Signature())
	}
	body, _ := json.Marshal(sweep)
	w := post(serve.NewHandler(newNode(st)), "/v1/batch", body)
	got := lapDigest([]wireResponse{{status: w.Code, sum: sha256.Sum256(w.Body.Bytes())}})
	if want := g.Workloads["batch-sweep"].Digest; got != want {
		t.Fatalf("batch-sweep: digest %s, golden %s (status %d)", got, want, w.Code)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// run-warm. Every later node opens its own copy of the closed store.
	openCopy := func() *store.Store {
		t.Helper()
		cp := t.TempDir()
		if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(cp, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	runs := sim.TotalEngineStats().Runs
	warm := newNode(openCopy())
	warmH := serve.NewHandler(warm)
	check("run-warm", warm, runLap(warmH, jobs))

	// fleet-dispatch, as jfserved -peers wires a front.
	var peers []string
	for range 2 {
		ts := httptest.NewServer(serve.NewHandler(newNode(openCopy())))
		t.Cleanup(ts.Close)
		peers = append(peers, ts.URL)
	}
	frontSvc := newNode(nil)
	d, err := New(Options{Peers: peers, Local: frontSvc.Scheduler()})
	if err != nil {
		t.Fatal(err)
	}
	frontSvc.SetBatchRunner(d)
	front := serve.NewHandler(frontSvc)
	check("fleet-dispatch", warm, runLap(front, jobs))

	// The dispatched /v1/batch against the local one, and the front's
	// NDJSON stream against its buffered batch, on two configurations.
	batch, _ := json.Marshal(serve.BatchRequest{Configs: names[:2], Methods: sweep.Methods})
	local := post(warmH, "/v1/batch", batch)
	remote := post(front, "/v1/batch", batch)
	if local.Code != http.StatusOK || remote.Code != http.StatusOK {
		t.Fatalf("/v1/batch: local status %d, dispatched %d", local.Code, remote.Code)
	}
	if err := sameLines(remote.Body.Bytes(), local.Body.Bytes()); err != nil {
		t.Fatalf("dispatched /v1/batch differs from the local one: %v", err)
	}
	stream := post(front, "/v1/batch?stream=ndjson", batch)
	if err := streamMatchesBatch(stream.Body.Bytes(), remote.Body.Bytes()); err != nil {
		t.Fatalf("NDJSON stream differs from the buffered /v1/batch: %v", err)
	}

	if n := sim.TotalEngineStats().Runs - runs; n != 0 {
		t.Fatalf("%d engine runs on reopened stores, want 0", n)
	}
	if st := d.Stats(); st.Retries != 0 || st.LocalFallbacks != 0 || st.Backends[0].Jobs == 0 || st.Backends[1].Jobs == 0 {
		t.Fatalf("front: want both backends used, no retries and no local fallbacks: %+v", st)
	}
}

// sameLines returns an error naming the first line where a and b differ.
func sameLines(a, b []byte) error {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range min(len(la), len(lb)) {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Errorf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	if len(la) != len(lb) {
		return fmt.Errorf("%d lines vs %d", len(la), len(lb))
	}
	return nil
}

// streamMatchesBatch checks that an NDJSON batch stream carries, in order,
// the buffered batch's runs and per-configuration summaries.
func streamMatchesBatch(stream, batch []byte) error {
	var buffered struct {
		Results []struct {
			Summary json.RawMessage   `json:"summary"`
			Runs    []json.RawMessage `json:"runs"`
		} `json:"results"`
	}
	if err := json.Unmarshal(batch, &buffered); err != nil {
		return err
	}
	var want []string
	for _, r := range buffered.Results {
		for _, run := range r.Runs {
			want = append(want, "run "+compact(run))
		}
		want = append(want, "summary "+compact(r.Summary))
	}
	var got []string
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct {
			Type    string          `json:"type"`
			Run     json.RawMessage `json:"run"`
			Summary json.RawMessage `json:"summary"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return err
		}
		switch ev.Type {
		case "run":
			got = append(got, "run "+compact(ev.Run))
		case "summary":
			got = append(got, "summary "+compact(ev.Summary))
		}
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Errorf("event %d: stream %s, batch %s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("stream has %d run/summary events, batch %d", len(got), len(want))
	}
	return nil
}

func compact(raw json.RawMessage) string {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return "invalid: " + err.Error()
	}
	return b.String()
}

// firstDrift explains a failed lap digest: it names the first job whose
// body, as svc serves it, is not encoding/json's rendering of the run svc
// computes for it, with the first differing line — or says that every body
// renders its run faithfully, so the runs themselves changed.
func firstDrift(t *testing.T, svc *serve.Service, jobs []serve.Job, rs []wireResponse) string {
	t.Helper()
	h := serve.NewHandler(svc)
	for i, j := range jobs {
		cfg, sig := j.Config.Name, j.Method.Signature()
		var want any
		payload, err := svc.RunLocal(context.Background(), cfg, sig, 0)
		var le *fabric.LoadError
		switch {
		case err == nil:
			want = payload
		case errors.As(err, &le):
			want = serve.ErrorPayload{Error: le.Error(), Kind: serve.ErrKindRejected, Method: le.Method, Reason: le.Reason}
		default:
			return fmt.Sprintf("job %d (%s on %s): %v", i, sig, cfg, err)
		}
		if wantBody := indentJSON(t, want); sha256.Sum256(wantBody) != rs[i].sum {
			_, got := postRun(h, cfg, sig)
			return fmt.Sprintf("first differing job %d, %s on %s: served vs encoding/json: %v",
				i, sig, cfg, sameLines(got, wantBody))
		}
	}
	return "every body is encoding/json's rendering of its run, so the runs themselves changed"
}
