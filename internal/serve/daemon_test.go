package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"javaflow/internal/sim"
	"javaflow/internal/store"
)

// TestDaemonShutdownDrainsAndFlushes is the SIGTERM ordering contract: a
// batch that is in flight when shutdown begins must complete with a full
// response, and its results must be flushed to the store before Run
// returns — no dispatched job is ever lost to a restart.
func TestDaemonShutdownDrainsAndFlushes(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	methods := hostableMethods(t, 4)
	sched := NewScheduler(SchedulerOptions{Workers: 2, MaxMeshCycles: testMaxCycles, Store: st})
	svc := NewService(sched, sim.Configurations(), methods)

	daemon := &Daemon{
		Service: svc,
		Store:   st,
		Drain:   time.Minute,
	}

	ln := listenLoopback(t)
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- daemon.Run(ctx, ln) }()

	// Fire a sweep and wait until its jobs are actually executing.
	body, _ := json.Marshal(BatchRequest{Configs: []string{"Compact2", "Hetero2"}})
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()
	deadline := time.After(30 * time.Second)
	for sched.Metrics().Snapshot(nil, nil).Jobs == 0 {
		select {
		case <-deadline:
			t.Fatal("no job started within 30s")
		case err := <-errCh:
			t.Fatalf("batch request failed before shutdown: %v", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// SIGTERM lands mid-batch.
	cancel()

	select {
	case resp := <-respCh:
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-flight batch got status %d: %s", resp.StatusCode, out)
		}
		var parsed BatchResponse
		if err := json.Unmarshal(out, &parsed); err != nil {
			t.Fatalf("in-flight batch response truncated: %v", err)
		}
		if len(parsed.Results) != 2 || parsed.Results[0].Summary.Methods == 0 {
			t.Fatalf("in-flight batch response incomplete: %+v", parsed)
		}
	case err := <-errCh:
		t.Fatalf("in-flight batch dropped during shutdown: %v", err)
	case <-time.After(60 * time.Second):
		t.Fatal("in-flight batch never completed")
	}

	if err := <-runErr; err != nil {
		t.Fatalf("daemon shutdown: %v", err)
	}
	// The daemon journals its life: one start, one stop.
	if c := sched.Metrics().Journal().CountsByKind(); c["serve/start"] != 1 || c["serve/stop"] != 1 {
		t.Fatalf("journal counts %v, want serve/start 1 and serve/stop 1", c)
	}

	// New connections are refused after Run returns.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}

	// The drained jobs' results were flushed: a fresh store serves them.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() == 0 {
		t.Fatal("store is empty after shutdown: in-flight results were lost")
	}
	cfg := testConfig(t, "Compact2")
	key := store.RunKeyFor(cfg, methods[0], testMaxCycles)
	if _, ok := st2.GetRun(key); !ok {
		t.Fatalf("run for %s not in the flushed store", methods[0].Signature())
	}
}

// TestDaemonAutoCompacts: a store whose segments are mostly superseded
// duplicates must be compacted by the background trigger once the garbage
// ratio passes the threshold — and the surviving records must still be
// readable afterwards.
func TestDaemonAutoCompacts(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	methods := hostableMethods(t, 1)
	cfg := testConfig(t, "Compact2")
	key := store.RunKeyFor(cfg, methods[0], testMaxCycles)

	// Garbage-heavy store: the same key rewritten many times leaves one
	// live record atop dozens of superseded ones.
	run := sim.MethodRun{Signature: methods[0].Signature()}
	for i := 0; i < 60; i++ {
		run.BP1.Fired = i // vary the payload; only the last survives
		st.PutRun(key, run)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	before := st.Admin()
	if before.GarbageRatio < 0.5 {
		t.Fatalf("setup produced garbage ratio %.2f, want >= 0.5", before.GarbageRatio)
	}

	sched := NewScheduler(SchedulerOptions{Workers: 1, MaxMeshCycles: testMaxCycles, Store: st})
	daemon := &Daemon{
		Service:          NewService(sched, sim.Configurations(), methods),
		Store:            st,
		Drain:            time.Minute,
		CompactThreshold: 0.5,
		CompactEvery:     5 * time.Millisecond,
		Logf:             t.Logf,
	}

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- daemon.Run(ctx, listenLoopback(t)) }()

	deadline := time.After(30 * time.Second)
	for st.Stats().Compactions == 0 {
		select {
		case <-deadline:
			t.Fatal("compactor never fired within 30s")
		case err := <-runErr:
			t.Fatalf("daemon exited early: %v", err)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("daemon shutdown: %v", err)
	}

	// The compacted store dropped the duplicates and kept the live record.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	after := st2.Admin()
	if after.GarbageRatio >= before.GarbageRatio {
		t.Fatalf("garbage ratio did not improve: %.2f -> %.2f", before.GarbageRatio, after.GarbageRatio)
	}
	got, ok := st2.GetRun(key)
	if !ok {
		t.Fatal("live record lost by compaction")
	}
	if got.BP1.Fired != 59 {
		t.Fatalf("compaction kept stale payload: fired=%d, want 59", got.BP1.Fired)
	}
}

// listenLoopback binds a loopback port for a daemon under test; Run owns
// (and closes) it from then on.
func listenLoopback(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}
