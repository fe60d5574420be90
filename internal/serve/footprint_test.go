package serve

import (
	"runtime"
	"testing"

	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// TestDeploymentFootprint bounds the live heap a DeploymentCache holds
// after the repository benchmark's lap — the first 800 corpus methods on
// every configuration, 4 800 jobs sharing 3 200 deployments by geometry —
// measured as the HeapAlloc delta across the fill, each side after a
// runtime.GC. A batch node keeps these for its whole life, so they are a
// standing share of its peak RSS. It reads about 4.33 MB (1 352 bytes per
// deployment, placement included); per-instruction target and source
// lists held 13.24 MB.
func TestDeploymentFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const maxBytes = 5_000_000
	methods := workload.Corpus(2014, 1580)[:800]
	configs := sim.Configurations()
	fill := func() *DeploymentCache {
		c := NewDeploymentCache(0)
		for _, cfg := range configs {
			for _, m := range methods {
				_, _ = c.ResolveMethod(cfg, m) // rejections are cached too
			}
		}
		return c
	}
	fill() // warm-up: what a method memoises on its first deployment is not the cache's

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := fill()
	runtime.GC()
	runtime.ReadMemStats(&after)
	entries := c.Len()
	// The corpus must outlive the second reading too, or its bodies are
	// freed inside the window and offset the cache's own bytes.
	runtime.KeepAlive(c)
	runtime.KeepAlive(methods)

	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if retained > maxBytes {
		t.Errorf("%d deployments retain %d bytes, want <= %d", entries, retained, maxBytes)
	}
	t.Logf("%d deployments retain %d bytes (%.0f per deployment)", entries, retained, float64(retained)/float64(entries))
}
