package serve

import (
	"errors"
	"fmt"
	"testing"

	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// testConfig returns the named Table 15 configuration.
func testConfig(t testing.TB, name string) sim.Config {
	t.Helper()
	for _, cfg := range sim.Configurations() {
		if cfg.Name == name {
			return cfg
		}
	}
	t.Fatalf("no configuration %q", name)
	return sim.Config{}
}

// hostableMethods returns named corpus methods the compact fabric accepts.
func hostableMethods(t testing.TB, n int) []*classfile.Method {
	t.Helper()
	cfg := testConfig(t, "Compact2")
	var out []*classfile.Method
	for _, m := range workload.NamedMethods() {
		if _, err := sim.DeployMethod(cfg, m); err == nil {
			out = append(out, m)
			if len(out) == n {
				break
			}
		}
	}
	if len(out) < n {
		t.Fatalf("only %d hostable methods, want %d", len(out), n)
	}
	return out
}

// rejectedMethod returns a named corpus method the compact fabric refuses.
func rejectedMethod(t *testing.T) *classfile.Method {
	t.Helper()
	cfg := testConfig(t, "Compact2")
	for _, m := range workload.NamedMethods() {
		var le *fabric.LoadError
		if _, err := sim.DeployMethod(cfg, m); err != nil && errors.As(err, &le) {
			return m
		}
	}
	t.Fatal("no fabric-rejected method in the named corpus")
	return nil
}

func TestCacheHitMissAccounting(t *testing.T) {
	cache := NewDeploymentCache(64)
	cfg := testConfig(t, "Compact2")
	methods := hostableMethods(t, 3)

	for _, m := range methods {
		if _, err := cache.ResolveMethod(cfg, m); err != nil {
			t.Fatalf("resolve %s: %v", m.Signature(), err)
		}
	}
	st := cache.Stats()
	if st.Hits != 0 || st.Misses != 3 || st.Entries != 3 {
		t.Fatalf("after cold pass: %+v, want 0 hits / 3 misses / 3 entries", st)
	}

	for i := 0; i < 2; i++ {
		for _, m := range methods {
			res, err := cache.ResolveMethod(cfg, m)
			if err != nil {
				t.Fatalf("resolve %s: %v", m.Signature(), err)
			}
			if res.Placement.Method != m {
				t.Fatalf("cached resolution is for a different method")
			}
		}
	}
	st = cache.Stats()
	if st.Hits != 6 || st.Misses != 3 {
		t.Fatalf("after warm passes: %+v, want 6 hits / 3 misses", st)
	}

	// A different fabric geometry is a distinct cache line.
	other := testConfig(t, "Sparse2")
	if _, err := cache.ResolveMethod(other, methods[0]); err != nil {
		t.Fatalf("resolve on Sparse2: %v", err)
	}
	st = cache.Stats()
	if st.Misses != 4 {
		t.Fatalf("distinct geometry should miss: %+v", st)
	}
}

// TestCacheSharesDeploymentsAcrossConfigs pins the ROADMAP "cross-config
// deployment sharing" behaviour: Compact10, Compact4 and Compact2 differ
// only in serial clocking, so after one of them deploys a method the other
// two hit the same cache line.
func TestCacheSharesDeploymentsAcrossConfigs(t *testing.T) {
	cache := NewDeploymentCache(64)
	m := hostableMethods(t, 1)[0]

	first, err := cache.ResolveMethod(testConfig(t, "Compact10"), m)
	if err != nil {
		t.Fatalf("resolve on Compact10: %v", err)
	}
	for _, name := range []string{"Compact4", "Compact2"} {
		res, err := cache.ResolveMethod(testConfig(t, name), m)
		if err != nil {
			t.Fatalf("resolve on %s: %v", name, err)
		}
		if res != first {
			t.Fatalf("%s did not share Compact10's cached deployment", name)
		}
	}
	st := cache.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 entry", st)
	}

	// Baseline shares the compact pattern but is collapsed — a different
	// geometry, so it must not reuse the placement.
	if _, err := cache.ResolveMethod(testConfig(t, "Baseline"), m); err != nil {
		t.Fatalf("resolve on Baseline: %v", err)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Fatalf("collapsed Baseline should miss: %+v", st)
	}
}

func TestCacheCachesFailures(t *testing.T) {
	cache := NewDeploymentCache(64)
	cfg := testConfig(t, "Compact2")
	rejected := rejectedMethod(t)

	_, err1 := cache.ResolveMethod(cfg, rejected)
	_, err2 := cache.ResolveMethod(cfg, rejected)
	if err1 == nil || err2 == nil {
		t.Fatalf("expected load errors, got %v / %v", err1, err2)
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("failure should be memoized: %+v", st)
	}
}

func TestCacheEviction(t *testing.T) {
	// Capacity 16 = exactly one entry per shard: any shard receiving a
	// second key must evict its first.
	cache := NewDeploymentCache(cacheShards)
	cfg := testConfig(t, "Compact2")
	methods := hostableMethods(t, 8)

	for round := 0; round < 4; round++ {
		for _, m := range methods {
			if _, err := cache.ResolveMethod(cfg, m); err != nil {
				t.Fatalf("resolve: %v", err)
			}
		}
	}
	st := cache.Stats()
	if st.Entries > cacheShards {
		t.Fatalf("cache exceeded its bound: %+v", st)
	}
	if st.Evictions == 0 && st.Entries == cacheShards {
		// All 8 methods landed on distinct shards — nothing to evict;
		// force a collision by reusing one shard with many geometries.
		m := methods[0]
		for i := 0; i < 4; i++ {
			c := cfg
			c.Name = fmt.Sprintf("%s-v%d", cfg.Name, i)
			c.Fabric = fabric.NewFabric(11+i, fabric.PatternCompact)
			if _, err := cache.ResolveMethod(c, m); err != nil {
				t.Fatalf("resolve: %v", err)
			}
		}
		if cache.Stats().Entries > cacheShards {
			t.Fatalf("cache exceeded its bound after collisions: %+v", cache.Stats())
		}
	}
}

func TestCacheFabricMismatchGuard(t *testing.T) {
	cache := NewDeploymentCache(64)
	methods := hostableMethods(t, 1)
	m := methods[0]

	a := sim.Config{Name: "shared-name", Fabric: fabric.NewFabric(10, fabric.PatternCompact), SerialPerMesh: 2}
	b := sim.Config{Name: "shared-name", Fabric: fabric.NewFabric(10, fabric.PatternSparse), SerialPerMesh: 2}

	resA, err := cache.ResolveMethod(a, m)
	if err != nil {
		t.Fatalf("resolve a: %v", err)
	}
	resB, err := cache.ResolveMethod(b, m)
	if err != nil {
		t.Fatalf("resolve b: %v", err)
	}
	if resB.Placement.Fabric == resA.Placement.Fabric {
		t.Fatalf("name collision across fabrics returned the stale placement")
	}
	if got, want := resB.Placement.MaxNode, 2*resA.Placement.MaxNode-1; got != want {
		t.Fatalf("sparse placement span = %d, want %d (stale compact entry served?)", got, want)
	}
	// Same pointer geometry hits again.
	if _, err := cache.ResolveMethod(b, m); err != nil {
		t.Fatalf("resolve b again: %v", err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("structural re-check should hit once: %+v", st)
	}
}
