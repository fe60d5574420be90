package sim

import (
	"bytes"
	"context"
	"testing"

	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/workload"
)

// The event-driven core must be observationally indistinguishable from the
// reference loop: same Result structs, same encoded MethodRun bytes, same
// stall errors. This is the invariant that lets EngineVersion stay at 1
// across the rewrite, so every persisted store record keeps replaying.

// diffVariant is one engine configuration axis combination.
type diffVariant struct {
	name  string
	fold  bool
	qAt   int // quiesce schedule (qFor == 0 disables)
	qFor  int
	cap   int // max mesh cycles
	short int // reduced cap used when the run times out even at cap
}

func diffVariants() []diffVariant {
	return []diffVariant{
		{name: "plain", cap: 120_000, short: 6_000},
		{name: "folded", fold: true, cap: 120_000, short: 6_000},
		{name: "quiesce-early", qAt: 37, qFor: 53, cap: 120_000, short: 6_000},
		{name: "quiesce-late", qAt: 2048, qFor: 4096, cap: 120_000, short: 6_000},
		{name: "folded-quiesce", fold: true, qAt: 64, qFor: 700, cap: 120_000, short: 6_000},
	}
}

// arm applies the variant's options and the cycle cap to a Reset engine.
func (v diffVariant) arm(eng *Engine, cap int) {
	eng.SetMaxCycles(cap)
	if v.fold {
		eng.EnableFolding()
	}
	if v.qFor > 0 {
		eng.ScheduleQuiesce(v.qAt, v.qFor)
	}
}

func newDiffEngine(cfg Config, res *fabric.Resolution, p BranchPolicy, v diffVariant, cap int) *Engine {
	eng := NewEngine(cfg, res, p)
	v.arm(eng, cap)
	return eng
}

// runPair executes one (method, config, policy, variant) cell on both
// loops and asserts identical outcomes. Returns both results for
// independent MethodRun assembly.
func runPair(t *testing.T, cfg Config, res *fabric.Resolution, p BranchPolicy, v diffVariant) (Result, Result, bool) {
	t.Helper()
	sig := res.Placement.Method.Signature()

	run := func(cap int) (Result, Result, error, error) {
		ev, evErr := newDiffEngine(cfg, res, p, v, cap).Run()
		rf, rfErr := newDiffEngine(cfg, res, p, v, cap).RunReference()
		return ev, rf, evErr, rfErr
	}

	cap := v.cap
	ev, rf, evErr, rfErr := run(cap)
	if evErr == nil && ev.TimedOut {
		// Timeout runs cost the reference loop cap×O(nodes) work; compare
		// them at a reduced cap instead (a method that times out at the
		// full cap necessarily times out at any smaller one).
		cap = v.short
		ev, rf, evErr, rfErr = run(cap)
	}

	if (evErr == nil) != (rfErr == nil) {
		t.Fatalf("%s/%s/%v/%s: error divergence: event=%v reference=%v",
			sig, cfg.Name, p, v.name, evErr, rfErr)
	}
	if evErr != nil {
		if evErr.Error() != rfErr.Error() {
			t.Fatalf("%s/%s/%v/%s: error text divergence:\n  event:     %v\n  reference: %v",
				sig, cfg.Name, p, v.name, evErr, rfErr)
		}
		return Result{}, Result{}, false
	}
	if ev != rf {
		t.Fatalf("%s/%s/%v/%s: result divergence:\n  event:     %+v\n  reference: %+v",
			sig, cfg.Name, p, v.name, ev, rf)
	}
	return ev, rf, true
}

func diffMethods(t *testing.T) []*classfile.Method {
	t.Helper()
	methods := workload.NamedMethods()
	for _, c := range workload.Generate(workload.GenConfig{Seed: 9, Count: 50}) {
		for _, m := range c.Methods {
			methods = append(methods, m)
		}
	}
	return methods
}

// TestDifferentialEventVsReference sweeps every workload method over every
// configuration, branch policy, folding setting and quiesce schedule, and
// asserts the event-driven engine and the reference loop agree exactly —
// Result structs and encoded MethodRun bytes.
func TestDifferentialEventVsReference(t *testing.T) {
	methods := diffMethods(t)
	variants := diffVariants()
	cells := 0

	for _, cfg := range Configurations() {
		loader := &fabric.Loader{Fabric: cfg.Fabric}
		for _, m := range methods {
			p, err := loader.Load(m)
			if err != nil {
				continue // ineligible for this fabric
			}
			res, err := fabric.Resolve(p)
			if err != nil {
				continue
			}
			for _, v := range variants {
				mrEvent := MethodRun{Signature: m.Signature()}
				mrRef := mrEvent
				ok := true
				for _, policy := range []BranchPolicy{BP1, BP2} {
					ev, rf, completed := runPair(t, cfg, res, policy, v)
					if !completed {
						ok = false
						break
					}
					ev.Policy, rf.Policy = policy, policy
					if policy == BP1 {
						mrEvent.BP1, mrRef.BP1 = ev, rf
					} else {
						mrEvent.BP2, mrRef.BP2 = ev, rf
					}
					cells++
				}
				if !ok {
					continue
				}
				evBytes, err := mrEvent.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				rfBytes, err := mrRef.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(evBytes, rfBytes) {
					t.Fatalf("%s/%s/%s: MethodRun encodings differ", m.Signature(), cfg.Name, v.name)
				}
			}
		}
	}
	if cells < 500 {
		t.Fatalf("only %d differential cells compared; corpus or variants collapsed", cells)
	}
	t.Logf("%d differential cells byte-identical", cells)
}

// TestDifferentialPreemptMatches: a cancelled context must abort both
// loops identically — error out with no Result.
func TestDifferentialPreemptMatches(t *testing.T) {
	m := methodBySignature(t, "scimark/utils/Random.nextDouble/0")
	cfg := configByName(t, "Compact4")
	loader := &fabric.Loader{Fabric: cfg.Fabric}
	p, err := loader.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fabric.Resolve(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	ev := NewEngine(cfg, res, BP1)
	ev.SetPreempt(ctx)
	if _, err := ev.Run(); err == nil {
		t.Fatal("event loop ignored cancelled context")
	}
	rf := NewEngine(cfg, res, BP1)
	rf.SetPreempt(ctx)
	if _, err := rf.RunReference(); err == nil {
		t.Fatal("reference loop ignored cancelled context")
	}
}

// TestEventEngineStats sanity-checks the throughput counters: a real run
// processes events, skips cycles during a quiesce stall, and lands in the
// process totals.
func TestEventEngineStats(t *testing.T) {
	m := methodBySignature(t, "scimark/utils/Random.nextDouble/0")
	cfg := configByName(t, "Compact2")
	loader := &fabric.Loader{Fabric: cfg.Fabric}
	p, err := loader.Load(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fabric.Resolve(p)
	if err != nil {
		t.Fatal(err)
	}

	before := TotalEngineStats()
	eng := NewEngine(cfg, res, BP1)
	eng.ScheduleQuiesce(100, 5_000)
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.MeshCycles != uint64(r.MeshCycles) {
		t.Errorf("stats cycles %d != result cycles %d", st.MeshCycles, r.MeshCycles)
	}
	if st.Events == 0 {
		t.Error("no events counted")
	}
	if st.CyclesSkipped < 5_000 {
		t.Errorf("skipped %d cycles, want at least the 5000-cycle quiesce window", st.CyclesSkipped)
	}
	after := TotalEngineStats()
	if after.Runs != before.Runs+1 {
		t.Errorf("totals runs %d -> %d, want +1", before.Runs, after.Runs)
	}
	if after.Events-before.Events != st.Events {
		t.Errorf("totals events delta %d, want %d", after.Events-before.Events, st.Events)
	}
}
