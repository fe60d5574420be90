package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"javaflow/internal/scenario"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// TestRunBatchStreamOrdered: the scheduler must emit every result exactly
// once, in submission order, and the emitted results must equal the
// materialised RunBatchCycles path.
func TestRunBatchStreamOrdered(t *testing.T) {
	methods := hostableMethods(t, 6)
	cfg := testConfig(t, "Compact2")
	sched := NewScheduler(SchedulerOptions{Workers: 4, MaxMeshCycles: testMaxCycles})

	jobs := make([]Job, 0, len(methods)*2)
	for i := 0; i < 2; i++ {
		for _, m := range methods {
			jobs = append(jobs, Job{Config: cfg, Method: m})
		}
	}

	order, results := streamed(context.Background(), sched, jobs)
	if len(order) != len(jobs) {
		t.Fatalf("emitted %d results for %d jobs", len(order), len(jobs))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("emission out of submission order: %v", order)
		}
		if results[i].Job.Method != jobs[i].Method {
			t.Errorf("emit %d carries the wrong job", i)
		}
	}

	plain := NewScheduler(SchedulerOptions{Workers: 4, MaxMeshCycles: testMaxCycles}).
		RunBatchCycles(context.Background(), jobs, 0)
	for i := range plain {
		if results[i].Err != nil || plain[i].Err != nil {
			t.Fatalf("job %d errored: %v / %v", i, results[i].Err, plain[i].Err)
		}
		if results[i].Run != plain[i].Run {
			t.Fatalf("job %d: streamed run differs from buffered run", i)
		}
	}
}

// streamLine mirrors StreamEvent with raw payloads, so byte-level
// comparison against the buffered response does not pass through a struct
// round-trip.
type streamLine struct {
	Type      string          `json:"type"`
	Config    string          `json:"config"`
	Signature string          `json:"signature"`
	Run       json.RawMessage `json:"run"`
	Summary   json.RawMessage `json:"summary"`
}

// rawBatchResponse mirrors BatchResponse with raw run payloads.
type rawBatchResponse struct {
	Results []struct {
		Summary json.RawMessage   `json:"summary"`
		Runs    []json.RawMessage `json:"runs"`
	} `json:"results"`
}

func compactJSON(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compacting %q: %v", raw, err)
	}
	return buf.String()
}

// TestHTTPStreamMatchesBuffered is the streaming acceptance contract: the
// NDJSON stream carries, in order, byte-identical run payloads and
// summaries to the buffered /v1/batch response for the same request.
func TestHTTPStreamMatchesBuffered(t *testing.T) {
	ts, _ := testServer(t, 4)
	req := BatchRequest{Configs: []string{"Compact2", "Hetero2"}}
	body, _ := json.Marshal(req)

	// Buffered.
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	buffered, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("buffered status %d: %s", resp.StatusCode, buffered)
	}
	var raw rawBatchResponse
	if err := json.Unmarshal(buffered, &raw); err != nil {
		t.Fatal(err)
	}

	// Streamed.
	resp, err = http.Post(ts.URL+"/v1/batch?stream=ndjson", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}

	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// Reassemble per-config groups from the stream and compare
	// byte-for-byte (modulo whitespace) with the buffered response.
	groupIdx := 0
	var runs []string
	for _, line := range lines {
		switch line.Type {
		case "run":
			runs = append(runs, compactJSON(t, line.Run))
		case "skip", "timeout":
			// Counted in the summary; no payload to compare.
		case "summary":
			if groupIdx >= len(raw.Results) {
				t.Fatalf("stream produced more summaries than buffered groups")
			}
			group := raw.Results[groupIdx]
			if got, want := compactJSON(t, line.Summary), compactJSON(t, group.Summary); got != want {
				t.Fatalf("config group %d summary differs:\nstream   %s\nbuffered %s", groupIdx, got, want)
			}
			if len(runs) != len(group.Runs) {
				t.Fatalf("config group %d: stream carried %d runs, buffered %d", groupIdx, len(runs), len(group.Runs))
			}
			for i := range runs {
				if want := compactJSON(t, group.Runs[i]); runs[i] != want {
					t.Fatalf("config group %d run %d differs:\nstream   %s\nbuffered %s", groupIdx, i, runs[i], want)
				}
			}
			runs = nil
			groupIdx++
		case "error":
			t.Fatalf("unexpected error event: %+v", line)
		default:
			t.Fatalf("unknown event type %q", line.Type)
		}
	}
	if groupIdx != len(raw.Results) {
		t.Fatalf("stream closed after %d of %d config groups", groupIdx, len(raw.Results))
	}
}

// TestHTTPStreamBadRequest: request-shape errors must fail with a normal
// JSON error status, not a committed stream.
func TestHTTPStreamBadRequest(t *testing.T) {
	ts, _ := testServer(t, 2)
	body, _ := json.Marshal(BatchRequest{Configs: []string{"NoSuchConfig"}})
	resp, err := http.Post(ts.URL+"/v1/batch?stream=ndjson", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// serveBatch posts body to the handler's /v1/batch (query appended to the
// path) and returns the status and the response bytes.
func serveBatch(t *testing.T, h http.Handler, query string, body []byte) (int, []byte) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/batch"+query, bytes.NewReader(body)))
	return w.Code, w.Body.Bytes()
}

// TestHTTPStreamZeroMethodSweep: a scenario that selects none of a node's
// methods still has one summary per configuration, buffered or streamed —
// streaming changes delivery, never content.
func TestHTTPStreamZeroMethodSweep(t *testing.T) {
	generated := workload.Corpus(2014, 20)[len(workload.NamedMethods()):]
	svc := NewService(NewScheduler(SchedulerOptions{Workers: 2, MaxMeshCycles: testMaxCycles}), sim.Configurations(), generated)
	svc.SetScenarios(scenario.Catalog())
	h := NewHandler(svc)
	body := []byte(`{"scenario":"crypto"}`)

	code, buffered := serveBatch(t, h, "", body)
	var raw rawBatchResponse
	if err := json.Unmarshal(buffered, &raw); code != http.StatusOK || err != nil {
		t.Fatalf("buffered: status %d, %v: %s", code, err, buffered)
	}
	if len(raw.Results) != len(sim.Configurations()) {
		t.Fatalf("buffered reply has %d configuration groups, want %d", len(raw.Results), len(sim.Configurations()))
	}
	code, streamed := serveBatch(t, h, "?stream=ndjson", body)
	if code != http.StatusOK {
		t.Fatalf("stream: status %d: %s", code, streamed)
	}
	var lines [][]byte
	if len(streamed) > 0 {
		lines = bytes.Split(bytes.TrimSuffix(streamed, []byte("\n")), []byte("\n"))
	}
	if len(lines) != len(raw.Results) {
		t.Fatalf("stream carried %d events for %d configurations:\n%s", len(lines), len(raw.Results), streamed)
	}
	for i, ln := range lines {
		var line streamLine
		if err := json.Unmarshal(ln, &line); err != nil || line.Type != "summary" {
			t.Fatalf("event %d: %s (%v), want a summary", i, ln, err)
		}
		if got, want := compactJSON(t, line.Summary), compactJSON(t, raw.Results[i].Summary); got != want {
			t.Fatalf("summary %d: stream %s, buffered %s", i, got, want)
		}
	}
}

// TestBatchFoldMatchesCollectRuns: the buffered reply folded as jobs
// arrive is byte for byte the reply CollectRuns and IPCSummary build over
// the materialised batch, on a sweep with a fabric-rejected method and a
// cycle cap low enough for timeouts, with and without runs.
func TestBatchFoldMatchesCollectRuns(t *testing.T) {
	const maxCycles = 300
	methods := workload.NamedMethods()
	sched := NewScheduler(SchedulerOptions{Workers: 4, MaxMeshCycles: testMaxCycles})
	h := NewHandler(NewService(sched, sim.Configurations(), methods))

	var jobs []Job
	for _, cfg := range sim.Configurations() {
		for _, m := range methods {
			jobs = append(jobs, Job{Config: cfg, Method: m})
		}
	}
	flat := sched.RunBatchCycles(context.Background(), jobs, maxCycles)
	for _, summaryOnly := range []bool{true, false} {
		var want BatchResponse
		skipped, timedOut := 0, 0
		for i, cfg := range sim.Configurations() {
			cr, err := CollectRuns(cfg, flat[i*len(methods):(i+1)*len(methods)])
			if err != nil {
				t.Fatal(err)
			}
			skipped, timedOut = skipped+cr.Skipped, timedOut+cr.TimedOut
			res := BatchConfigResult{Summary: ConfigSummary{
				Config: cfg.Name, Methods: len(cr.Runs), Skipped: cr.Skipped, TimedOut: cr.TimedOut, IPC: cr.IPCSummary(),
			}}
			for _, run := range cr.Runs {
				if !summaryOnly {
					res.Runs = append(res.Runs, payloadFor(cfg.Name, run))
				}
			}
			want.Results = append(want.Results, res)
		}
		if skipped == 0 || timedOut == 0 {
			t.Fatalf("sweep has %d skips and %d timeouts; the edges are not exercised", skipped, timedOut)
		}
		w := httptest.NewRecorder()
		writeJSON(w, http.StatusOK, want)
		body, _ := json.Marshal(BatchRequest{MaxMeshCycles: maxCycles, SummaryOnly: summaryOnly})
		code, got := serveBatch(t, h, "", body)
		if code != http.StatusOK || !bytes.Equal(got, w.Body.Bytes()) {
			t.Fatalf("summaryOnly %v: status %d, folded reply differs from CollectRuns':\n%.600s\nvs\n%.600s", summaryOnly, code, got, w.Body.Bytes())
		}
	}
}

// failingRunner runs a batch on a scheduler but fails one job with an
// error that is not a fabric rejection, counting the jobs it ran. It runs
// one job at a time: on a pool, a slow head job lets the other workers run
// the whole sweep before the failure behind it is emitted.
type failingRunner struct {
	*Scheduler
	fail Job
	runs atomic.Int32
}

var errInjected = errors.New("injected failure")

func (f *failingRunner) RunBatchStream(ctx context.Context, n int, job func(int) Job, maxCycles int, emit func(int, JobResult)) {
	FanOut(ctx, n, job, 1, emit, func(j Job) (sim.MethodRun, error) {
		f.runs.Add(1)
		if j == f.fail {
			return sim.MethodRun{}, errInjected
		}
		return f.RunMethodCycles(ctx, j.Config, j.Method, maxCycles)
	})
}

// TestBatchFailingJobCancelsSweep: a job that fails other than by fabric
// rejection fails the batch with sim.Runner.RunAll's error text, and the
// fold cancels the jobs still to run.
func TestBatchFailingJobCancelsSweep(t *testing.T) {
	methods := hostableMethods(t, 8)
	sched := NewScheduler(SchedulerOptions{Workers: 2, MaxMeshCycles: testMaxCycles})
	svc := NewService(sched, sim.Configurations(), methods)
	fr := &failingRunner{Scheduler: sched, fail: Job{Config: svc.Configs()[0], Method: methods[3]}}
	svc.SetBatchRunner(fr)

	_, err := svc.Batch(context.Background(), BatchRequest{SummaryOnly: true})
	if want := "sim: " + methods[3].Signature() + ": " + errInjected.Error(); err == nil || err.Error() != want || !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want %q wrapping the job's error", err, want)
	}
	if jobs := len(methods) * len(sim.Configurations()); int(fr.runs.Load()) >= jobs {
		t.Fatalf("%d of %d jobs ran: the failure did not cancel the sweep", fr.runs.Load(), jobs)
	}
}
