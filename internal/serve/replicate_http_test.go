package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"javaflow/internal/replicate"
	"javaflow/internal/sim"
	"javaflow/internal/store"
)

// replicaServer builds a store-backed service with one computed run and
// returns the server plus its store.
func replicaServer(t *testing.T) (*httptest.Server, *store.Store, string) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	methods := hostableMethods(t, 1)
	sched := NewScheduler(SchedulerOptions{Workers: 1, MaxMeshCycles: testMaxCycles, Store: st})
	svc := NewService(sched, sim.Configurations(), methods)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)

	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Config: "Compact2", Method: methods[0].Signature()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed run: status %d: %s", resp.StatusCode, body)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	return ts, st, methods[0].Signature()
}

// TestHTTPReplicateSegments exercises the segment-export surface: the
// manifest lists live bytes, the segment endpoint serves exactly them,
// ?from resumes, and the error contract holds (400 bad input, 404 unknown
// segment, 404 without a store).
func TestHTTPReplicateSegments(t *testing.T) {
	ts, _, _ := replicaServer(t)

	var manifest replicate.Manifest
	getJSON(t, ts.URL+"/v1/replicate/segments", &manifest)
	if len(manifest.Segments) != 1 || manifest.Segments[0].Size == 0 {
		t.Fatalf("manifest = %+v, want one non-empty segment", manifest.Segments)
	}
	seg := manifest.Segments[0]

	get := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}

	url := ts.URL + "/v1/replicate/segment/"
	resp, data := get(url + itoa(seg.Seq))
	if resp.StatusCode != http.StatusOK || int64(len(data)) != seg.Size {
		t.Fatalf("segment fetch: status %d, %d bytes (manifest %d)", resp.StatusCode, len(data), seg.Size)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}

	// Resume from the middle and from the end.
	resp, tail := get(url + itoa(seg.Seq) + "?from=10")
	if resp.StatusCode != http.StatusOK || int64(len(tail)) != seg.Size-10 {
		t.Fatalf("resumed fetch: status %d, %d bytes", resp.StatusCode, len(tail))
	}
	if string(tail) != string(data[10:]) {
		t.Fatal("resumed bytes differ from the full fetch")
	}
	resp, end := get(url + itoa(seg.Seq) + "?from=" + itoa64(seg.Size))
	if resp.StatusCode != http.StatusOK || len(end) != 0 {
		t.Fatalf("fetch at end: status %d, %d bytes, want empty 200", resp.StatusCode, len(end))
	}

	resp, _ = get(url + "999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown segment: status %d, want 404", resp.StatusCode)
	}
	resp, _ = get(url + "nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad seq: status %d, want 400", resp.StatusCode)
	}
	resp, _ = get(url + itoa(seg.Seq) + "?from=-3")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad offset: status %d, want 400", resp.StatusCode)
	}

	// Without a store the whole surface is 404.
	bare, _ := testServer(t, 1)
	resp, _ = get(bare.URL + "/v1/replicate/segments")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("manifest without store: status %d, want 404", resp.StatusCode)
	}
	resp, _ = get(bare.URL + "/v1/replicate/segment/1")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("segment without store: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPReplicationReports: with a replicator attached, GET /v1/store
// and GET /metrics both expose the replication block after a sync.
func TestHTTPReplicationReports(t *testing.T) {
	src, _, _ := replicaServer(t)

	dstStore, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dstStore.Close() })
	rep, err := replicate.New(replicate.Options{Store: dstStore, Peers: []string{src.URL}})
	if err != nil {
		t.Fatal(err)
	}
	methods := hostableMethods(t, 1)
	sched := NewScheduler(SchedulerOptions{Workers: 1, MaxMeshCycles: testMaxCycles, Store: dstStore})
	svc := NewService(sched, sim.Configurations(), methods)
	svc.SetReplicator(rep)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)

	resp, body := postJSON(t, ts.URL+"/v1/replicate/sync", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync: status %d: %s", resp.StatusCode, body)
	}

	var report StoreReport
	getJSON(t, ts.URL+"/v1/store", &report)
	if report.Replication == nil || report.Replication.Rounds == 0 || len(report.Replication.Peers) != 1 {
		t.Fatalf("store report replication block = %+v, want a synced peer", report.Replication)
	}
	peer := report.Replication.Peers[0]
	if peer.Peer != src.URL || !peer.CaughtUp || peer.LastSyncUnixMs == 0 {
		t.Fatalf("peer stats = %+v, want caught-up with a sync time", peer)
	}
	if len(peer.Cursor) == 0 {
		t.Fatalf("peer stats carry no cursor: %+v", peer)
	}

	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Replication == nil || len(snap.Replication.Peers) != 1 {
		t.Fatalf("metrics replication block = %+v", snap.Replication)
	}
	if snap.Store == nil || snap.Store.IngestedRecords == 0 {
		t.Fatalf("metrics store block shows no ingested records: %+v", snap.Store)
	}
}

func itoa(v int) string     { return strconv.Itoa(v) }
func itoa64(v int64) string { return strconv.FormatInt(v, 10) }

// TestDaemonRunsReplicatorLoop: a Daemon with a Replicator pulls peers in
// the background (no forced sync), and the ordered shutdown stops the loop
// before closing the store.
func TestDaemonRunsReplicatorLoop(t *testing.T) {
	src, _, _ := replicaServer(t)

	dstStore, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replicate.New(replicate.Options{
		Store:    dstStore,
		Peers:    []string{src.URL},
		Interval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	methods := hostableMethods(t, 1)
	sched := NewScheduler(SchedulerOptions{Workers: 1, MaxMeshCycles: testMaxCycles, Store: dstStore})
	svc := NewService(sched, sim.Configurations(), methods)

	d := &Daemon{
		Service:    svc,
		Store:      dstStore,
		Replicator: rep,
		Drain:      5 * time.Second,
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- d.Run(ctx, listenLoopback(t)) }()

	key := store.RunKeyFor(testConfig(t, "Compact2"), methods[0], testMaxCycles)
	deadline := time.Now().Add(10 * time.Second)
	for !dstStore.HasRun(key) {
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("background replication never pulled the peer's record")
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	if err := <-errCh; err != nil {
		t.Fatalf("daemon shutdown: %v", err)
	}
}
