package dispatch

import (
	"context"
	"sync"
	"testing"
	"time"

	"javaflow/internal/classfile"
	"javaflow/internal/obs"
	"javaflow/internal/scenario/chaos"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
)

// TestDispatchRecoveryCallback pins when dispatch calls Options.OnRecovery:
// exactly once per suspended→healthy transition, from the probe that sees
// the backend answer again — never for jobs routed around the suspension,
// never for ordinary successes. The journal narrates each episode too: one
// dispatch/suspension event when the backend dies and one
// dispatch/recovery event when the probe sees it back.
func TestDispatchRecoveryCallback(t *testing.T) {
	corpus := partitionCorpus()
	ts1, _ := newPeer(t, corpus)
	ts2, _ := newPeer(t, corpus)
	flaky := &chaos.FlakyBackend{Inner: NewRemote(ts1.URL, nil), FailAfter: -1}

	var mu sync.Mutex
	var recovered []string
	calls := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), recovered...)
	}

	clock := newTestClock()
	journal := obs.NewJournal("test", 64)
	d, err := NewWithBackends([]Backend{flaky, NewRemote(ts2.URL, nil)}, Options{
		Local:            newLocalScheduler(),
		Journal:          journal,
		FailureThreshold: 1,
		OnRecovery: func(backend string) {
			mu.Lock()
			defer mu.Unlock()
			recovered = append(recovered, backend)
		},
		Now: clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A hostable method whose ring owner is the flaky backend, so its
	// failure forces the job elsewhere and its recovery is observable.
	cfg := testConfig(t, "Compact2")
	var m *classfile.Method
	for _, cand := range corpus {
		if d.ring.owner(cand.Signature(), nil) != 0 {
			continue
		}
		if _, err := sim.DeployMethod(cfg, cand); err == nil {
			m = cand
			break
		}
	}
	if m == nil {
		t.Fatal("no hostable corpus method owned by backend 0")
	}
	job := []serve.Job{{Config: cfg, Method: m}}
	runOnce := func() {
		t.Helper()
		if res := d.RunBatchCycles(context.Background(), job, testMaxCycles); res[0].Err != nil {
			t.Fatalf("job failed: %v", res[0].Err)
		}
	}

	// Healthy traffic never calls the hook.
	runOnce()
	if got := calls(); len(got) != 0 {
		t.Fatalf("OnRecovery called on a healthy backend: %v", got)
	}

	for episode := 1; episode <= 2; episode++ {
		// The owner dies: the job retries onto the healthy peer and the
		// owner is suspended.
		flaky.Kill()
		runOnce()
		// The owner comes back, but dispatch does not know yet: inside
		// the probe backoff window the next job is still routed around
		// the suspension. Once the test clock passes the jittered delay,
		// the next job is the probe, and its success is the recovery.
		flaky.Revive()
		runOnce()
		if got := calls(); len(got) != episode-1 {
			t.Fatalf("episode %d: OnRecovery called before the probe: %v", episode, got)
		}
		clock.Advance(time.Minute)
		runOnce()
		runOnce() // an ordinary success after the recovery
		got := calls()
		if len(got) != episode {
			t.Fatalf("episode %d: OnRecovery calls = %v, want exactly %d", episode, got, episode)
		}
		for _, name := range got {
			if name != flaky.Name() {
				t.Fatalf("OnRecovery called with %q, want %q", name, flaky.Name())
			}
		}
	}
	if stats := d.Stats(); stats.OwnerRecoveries != 2 || stats.Suspensions != 2 {
		t.Fatalf("OwnerRecoveries = %d, Suspensions = %d, want 2 and 2", stats.OwnerRecoveries, stats.Suspensions)
	}
	counts := journal.CountsByKind()
	if counts["dispatch/suspension"] != 2 || counts["dispatch/recovery"] != 2 {
		t.Fatalf("journal counts %v, want 2 dispatch/suspension and 2 dispatch/recovery (one pair per episode)", counts)
	}
}
