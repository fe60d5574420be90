package serve

import (
	"context"
	"testing"

	"javaflow/internal/sim"
)

// The /metrics engine block must reflect real engine activity: after a
// scheduler executes a method, the process totals grow and the snapshot
// carries non-zero throughput gauges.
func TestMetricsEngineThroughput(t *testing.T) {
	methods := hostableMethods(t, 1)
	cfg := testConfig(t, "Compact2")
	sched := NewScheduler(SchedulerOptions{Workers: 1, MaxMeshCycles: testMaxCycles})

	before := sim.TotalEngineStats()
	if _, err := sched.RunMethodCycles(context.Background(), cfg, methods[0], 0); err != nil {
		t.Fatal(err)
	}
	snap := sched.Snapshot()
	eng := snap.Engine
	// Both branch policies: two engine runs, or one shared by both.
	if got := (eng.Runs - before.Runs) + (eng.PolicyRunsShared - before.PolicyRunsShared); got < 2 {
		t.Fatalf("%d policy results accounted (runs %d, shared %d), want 2",
			got, eng.Runs-before.Runs, eng.PolicyRunsShared-before.PolicyRunsShared)
	}
	if eng.Delivered <= before.Delivered || eng.Delivered-before.Delivered >= eng.Events-before.Events {
		t.Errorf("delivered %d for %d events; want fewer, not none",
			eng.Delivered-before.Delivered, eng.Events-before.Events)
	}
	if eng.SimulatedMeshCycles <= before.SimulatedMeshCycles {
		t.Error("no simulated mesh cycles recorded")
	}
	if eng.Events <= before.Events {
		t.Error("no events recorded")
	}
	if eng.MeshCyclesPerSec <= 0 || eng.EventsPerSec <= 0 {
		t.Errorf("zero throughput gauges: %+v", eng)
	}
}
