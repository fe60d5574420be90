package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/classfile"
	"javaflow/internal/sim"
)

// admitServer is testServer with a bounded admission controller
// attached, the way cmd/jfserved wires one.
func admitServer(t *testing.T, workers int, opts admit.Options) (url string, svc *Service) {
	t.Helper()
	server, service := testServer(t, workers)
	if opts.Registry == nil {
		opts.Registry = service.Scheduler().Metrics().Registry()
	}
	service.SetAdmission(admit.New(opts))
	return server.URL, service
}

// postWithDeadline POSTs a run request carrying an explicit wire
// deadline header value.
func postWithDeadline(t *testing.T, url, deadline string, req RunRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(admit.DeadlineHeader, deadline)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func TestHTTPOverloadTyped429(t *testing.T) {
	url, svc := admitServer(t, 1, admit.Options{RunCap: 1, BatchCap: 1})
	sig := svc.Methods()[0].Signature()

	// Saturate the run lane by hand, then hit the endpoint: the request
	// must be rejected before any execution with the full 429 contract.
	release, err := svc.Admission().Admit(admit.ClassRun)
	if err != nil {
		t.Fatalf("pre-fill admit: %v", err)
	}

	resp, body := postJSON(t, url+"/v1/run", RunRequest{Config: "Compact2", Method: sig})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", ra)
	}
	var ep ErrorPayload
	if err := json.Unmarshal(body, &ep); err != nil {
		t.Fatalf("decode 429 body: %v", err)
	}
	if ep.Kind != ErrKindOverloaded {
		t.Fatalf("kind = %q, want %q", ep.Kind, ErrKindOverloaded)
	}

	// Release the slot: the same request is admitted and runs normally —
	// the lane recovers, nothing is wedged.
	release()
	resp, body = postJSON(t, url+"/v1/run", RunRequest{Config: "Compact2", Method: sig})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status %d: %s", resp.StatusCode, body)
	}
	if got := svc.Admission().Depth(admit.ClassRun); got != 0 {
		t.Fatalf("run depth after recovery = %d, want 0", got)
	}
}

// heldRunner parks every run job until release is closed, so a flood's
// admitted requests stay inside the run lane until the test lets them go.
type heldRunner struct {
	BatchRunner
	release <-chan struct{}
}

func (h heldRunner) RunMethodCycles(ctx context.Context, cfg sim.Config, m *classfile.Method, maxCycles int) (sim.MethodRun, error) {
	<-h.release
	return h.BatchRunner.RunMethodCycles(ctx, cfg, m, maxCycles)
}

func TestHTTPFloodShedsAndStaysByteIdentical(t *testing.T) {
	// Flood at several times the run-lane capacity: shed requests get
	// typed 429s, zero requests get 5xx, and every admitted result is
	// byte-identical to the serial local path for the same job. Admitted
	// runs are parked inside the lane until every other request has been
	// answered, so the lane is full by construction and the split is exact
	// on any machine: cap 200s and flood-cap 429s.
	const capN, flood = 2, 16
	url, svc := admitServer(t, 2, admit.Options{RunCap: capN})
	sig := svc.Methods()[0].Signature()

	want, err := svc.RunLocal(context.Background(), "Compact2", sig, 0)
	if err != nil {
		t.Fatalf("local oracle run: %v", err)
	}
	wantJSON, _ := json.Marshal(want)

	release := make(chan struct{})
	svc.SetBatchRunner(heldRunner{BatchRunner: svc.Scheduler(), release: release})

	type outcome struct {
		status int
		body   []byte
		ra     string
	}
	reqBody, _ := json.Marshal(RunRequest{Config: "Compact2", Method: sig})
	results := make([]outcome, flood)
	answered := make(chan struct{}, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { answered <- struct{}{} }()
			resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("request %d: read: %v", i, err)
				return
			}
			results[i] = outcome{resp.StatusCode, body, resp.Header.Get("Retry-After")}
		}(i)
	}
	// Release the parked runs once everything beyond the lane has been
	// answered. The timeout only keeps a gate that admitted more than cap
	// from hanging the test; the counts below then fail it.
	for n, giveUp := 0, time.After(10*time.Second); n < flood-capN; n++ {
		select {
		case <-answered:
		case <-giveUp:
			n = flood
		}
	}
	close(release)
	wg.Wait()

	var ok, shed int
	for i, r := range results {
		switch r.status {
		case http.StatusOK:
			ok++
			var got RunPayload
			if err := json.Unmarshal(r.body, &got); err != nil {
				t.Fatalf("decode admitted result %d: %v", i, err)
			}
			gotJSON, _ := json.Marshal(got)
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("admitted result %d diverged from serial path:\n got %s\nwant %s", i, gotJSON, wantJSON)
			}
		case http.StatusTooManyRequests:
			shed++
			var ep ErrorPayload
			if err := json.Unmarshal(r.body, &ep); err != nil || ep.Kind != ErrKindOverloaded {
				t.Fatalf("rejection %d body %s, want kind %q", i, r.body, ErrKindOverloaded)
			}
			if secs, err := strconv.Atoi(r.ra); err != nil || secs < 1 {
				t.Fatalf("rejection %d Retry-After = %q, want positive seconds", i, r.ra)
			}
		default:
			t.Fatalf("request %d: status %d (flood must produce only 200s and 429s): %s", i, r.status, r.body)
		}
	}
	if ok != capN || shed != flood-capN {
		t.Fatalf("flood of %d at cap %d: %d admitted, %d shed; want exactly %d and %d",
			flood, capN, ok, shed, capN, flood-capN)
	}
	// Recovery: depth back to zero and a fresh request admitted.
	if got := svc.Admission().Depth(admit.ClassRun); got != 0 {
		t.Fatalf("run depth after flood = %d, want 0", got)
	}
	resp, body := postJSON(t, url+"/v1/run", RunRequest{Config: "Compact2", Method: sig})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-flood request status %d: %s", resp.StatusCode, body)
	}
}

func TestHTTPDeadlineShedExpiredOnArrival(t *testing.T) {
	url, svc := admitServer(t, 1, admit.Options{})
	sig := svc.Methods()[0].Signature()

	expired := admit.FormatDeadline(time.Now().Add(-2 * time.Second))
	resp := postWithDeadline(t, url+"/v1/run", expired, RunRequest{Config: "Compact2", Method: sig})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 shed", resp.StatusCode)
	}
	var ep ErrorPayload
	if err := json.NewDecoder(resp.Body).Decode(&ep); err != nil {
		t.Fatalf("decode shed body: %v", err)
	}
	if ep.Kind != ErrKindDeadline {
		t.Fatalf("kind = %q, want %q", ep.Kind, ErrKindDeadline)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// Shed, not executed: no job ran.
	if jobs := svc.Scheduler().Metrics().Snapshot(nil, nil).Jobs; jobs != 0 {
		t.Fatalf("shed request still ran %d jobs", jobs)
	}
	if st := svc.Admission().Stats(); st.Classes[0].DeadlineSheds != 1 {
		t.Fatalf("deadline sheds = %d, want 1", st.Classes[0].DeadlineSheds)
	}
}

func TestHTTPMalformedDeadlineIsIgnored(t *testing.T) {
	url, svc := admitServer(t, 1, admit.Options{})
	sig := svc.Methods()[0].Signature()

	for _, hostile := range []string{"garbage", "-5", "99999999999999999999999"} {
		resp := postWithDeadline(t, url+"/v1/run", hostile, RunRequest{Config: "Compact2", Method: sig})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("deadline %q: status %d, want 200 (hostile values mean no deadline)", hostile, resp.StatusCode)
		}
	}
}

func TestHTTPMetricsCarryAdmissionBlock(t *testing.T) {
	url, svc := admitServer(t, 1, admit.Options{RunCap: 1})
	// Force one rejection so the counters are non-zero.
	rel, err := svc.Admission().Admit(admit.ClassRun)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Admission().Admit(admit.ClassRun); err == nil {
		t.Fatal("second admit at cap 1 should reject")
	}
	rel()

	var snap MetricsSnapshot
	getJSON(t, url+"/metrics", &snap)
	if snap.Admission == nil {
		t.Fatal("GET /metrics missing admission block")
	}
	if len(snap.Admission.Classes) != 3 {
		t.Fatalf("admission classes = %d, want 3", len(snap.Admission.Classes))
	}
	if snap.Admission.Classes[0].Rejected != 1 {
		t.Fatalf("run rejected = %d, want 1", snap.Admission.Classes[0].Rejected)
	}

	// The Prometheus exposition carries the per-class gauges too.
	resp, err := http.Get(url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatalf("GET prometheus: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read prometheus body: %v", err)
	}
	for _, want := range []string{
		`javaflow_admit_queue_depth{class="run"}`,
		`javaflow_admit_rejections_total{class="run"} 1`,
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

func TestHTTPDrainingRejectsNewWork(t *testing.T) {
	url, svc := admitServer(t, 1, admit.Options{})
	sig := svc.Methods()[0].Signature()
	svc.Admission().SetDraining(true)
	resp, body := postJSON(t, url+"/v1/run", RunRequest{Config: "Compact2", Method: sig})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("draining status %d, want 429: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), ErrKindOverloaded) {
		t.Fatalf("draining body missing typed kind: %s", body)
	}
}
