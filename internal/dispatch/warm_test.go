package dispatch

import (
	"context"
	"reflect"
	"testing"

	"javaflow/internal/classfile"
	"javaflow/internal/scenario/chaos"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
	"javaflow/internal/workload"
)

// hostableMethod returns one named-corpus method the given configuration
// accepts.
func hostableMethod(t *testing.T, cfg sim.Config) *classfile.Method {
	t.Helper()
	for _, m := range workload.NamedMethods() {
		if _, err := sim.DeployMethod(cfg, m); err == nil {
			return m
		}
	}
	t.Fatal("no hostable method")
	return nil
}

// TestDispatchWarmLocalRetryServesFromStore: the ring owner dies, but the
// local scheduler's store already holds the key (replication pulled it, or
// this node computed it before) — the retry must serve it from the store
// without a second network attempt or an engine re-run. The store is
// found through Options.Local alone; nothing else is wired.
func TestDispatchWarmLocalRetryServesFromStore(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, MaxMeshCycles: testMaxCycles, Store: st})
	cfg := testConfig(t, "Compact2")
	m := hostableMethod(t, cfg)

	// Warm the store (stands in for an anti-entropy pull of the dead
	// backend's segments).
	want, err := sched.RunMethodCycles(context.Background(), cfg, m, testMaxCycles)
	if err != nil {
		t.Fatal(err)
	}
	missesAfterSeed := st.Stats().RunMisses

	dead := &chaos.FlakyBackend{Inner: NewRemote("http://192.0.2.1:1", nil), FailAfter: -1}
	dead.Kill()
	d, err := NewWithBackends([]Backend{dead}, Options{Local: sched})
	if err != nil {
		t.Fatal(err)
	}

	got := d.RunBatchCycles(context.Background(), []serve.Job{{Config: cfg, Method: m}}, testMaxCycles)
	if got[0].Err != nil {
		t.Fatalf("warm retry failed: %v", got[0].Err)
	}
	if !reflect.DeepEqual(got[0].Run, want) {
		t.Fatal("warm retry result differs from the computed run")
	}
	stats := d.Stats()
	if stats.WarmLocalHits != 1 {
		t.Fatalf("warmLocalHits = %d, want 1 (stats %+v)", stats.WarmLocalHits, stats)
	}
	if stats.LocalFallbacks != 0 {
		t.Fatalf("warm serve counted as a blind local fallback: %+v", stats)
	}
	if misses := st.Stats().RunMisses; misses != missesAfterSeed {
		t.Fatalf("engine re-ran a warm key (store misses %d -> %d)", missesAfterSeed, misses)
	}
}

// TestDispatchRetryPrefersSyncedPeer: with a SyncedPeers hook, every job
// whose ring owner is dead must be retried on the replication-synced peer
// — never on the unsynced one — while ring-owned traffic is unaffected.
func TestDispatchRetryPrefersSyncedPeer(t *testing.T) {
	corpus := partitionCorpus()
	ts2, _ := newPeer(t, corpus)
	ts3, _ := newPeer(t, corpus)
	dead := &chaos.FlakyBackend{Inner: NewRemote("http://192.0.2.1:1", nil), FailAfter: -1}
	dead.Kill()
	b2 := NewRemote(ts2.URL, nil)
	b3 := NewRemote(ts3.URL, nil)

	d, err := NewWithBackends([]Backend{dead, b2, b3}, Options{
		Local: newLocalScheduler(),
		// Keep the dead node routable so every one of its jobs exercises
		// the retry path instead of being suspended away.
		FailureThreshold: 1 << 30,
		SyncedPeers:      func() []string { return []string{b3.Name()} },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pick methods until each backend owns a few signatures.
	counts := make([]int, 3)
	var methods []*classfile.Method
	for _, m := range corpus {
		owner := d.ring.owner(m.Signature(), nil)
		if counts[owner] >= 3 {
			continue
		}
		counts[owner]++
		methods = append(methods, m)
		if counts[0] >= 3 && counts[1] >= 3 && counts[2] >= 3 {
			break
		}
	}
	if counts[0] < 3 || counts[1] < 3 || counts[2] < 3 {
		t.Fatalf("could not partition corpus across 3 backends: %v", counts)
	}

	jobs := sweepJobs(t, []string{"Compact2"}, methods)
	perOwner := make([]int64, 3)
	for _, j := range jobs {
		perOwner[d.ring.owner(j.Method.Signature(), nil)]++
	}

	got := d.RunBatchCycles(context.Background(), jobs, testMaxCycles)
	want := newLocalScheduler().RunBatchCycles(context.Background(), jobs, testMaxCycles)
	assertSameResults(t, got, want)

	stats := d.Stats()
	if stats.LocalFallbacks != 0 {
		t.Fatalf("jobs fell back locally: %+v", stats)
	}
	if stats.Retries != perOwner[0] || stats.WarmRetries != perOwner[0] {
		t.Fatalf("retries = %d, warmRetries = %d, want both %d (every dead-owned job preferred the synced peer)",
			stats.Retries, stats.WarmRetries, perOwner[0])
	}
	for _, b := range stats.Backends {
		switch b.Name {
		case b2.Name():
			if b.Jobs != perOwner[1] {
				t.Fatalf("unsynced peer served %d jobs, want only its %d ring-owned", b.Jobs, perOwner[1])
			}
		case b3.Name():
			if b.Jobs != perOwner[2]+perOwner[0] {
				t.Fatalf("synced peer served %d jobs, want its %d ring-owned plus %d retries",
					b.Jobs, perOwner[2], perOwner[0])
			}
		}
	}
}
