package sim

import (
	"bytes"
	"context"
	"testing"

	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/workload"
)

// The engine must be observationally indistinguishable from the oracle
// (refEngine, reference_test.go): same Result structs, same encoded
// MethodRun bytes, same stall errors, same simulated counters. This is the
// invariant that lets EngineVersion stay at 1 across engine rewrites, so
// every persisted store record keeps replaying.

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

// ref builds the oracle for the same cell.
func (v diffVariant) ref(cfg Config, res *fabric.Resolution, p BranchPolicy, cap int) *refEngine {
	rf := newRefEngine(cfg, res, p)
	rf.cycleCap, rf.fold, rf.qAt, rf.qFor = cap, v.fold, v.qAt, v.qFor
	return rf
}

// newDiffEngine builds an armed engine that also checks, at every backward
// bundle transport, the invariant the loop-span reset relies on: whatever
// is still in flight was sent from the jump or beyond it. (A control node
// observes everything, so a message from before the jump is delivered at or
// before it, where the transport gate waits for it; the reset span is
// therefore never crossed virtually, and no wake entry is pending. Nor is a
// HEAD notice, an entry with from == to == k: k lies in the span HEAD has
// passed, its clock is no later than HEAD's arrival at the jump, and the
// jump needs HEAD to fire — so the reset never has to orphan one.)
func newDiffEngine(t *testing.T, cfg Config, res *fabric.Resolution, p BranchPolicy, v diffVariant, cap int) *Engine {
	eng := NewEngine(cfg, res, p)
	v.arm(eng, cap)
	eng.onBackward = func(i int) {
		for _, b := range eng.serialEv.pending() {
			for _, m := range b.items {
				if m.from < i {
					t.Errorf("%s/%s: %v from node %d to %d in flight across the backward transport at node %d",
						res.Placement.Method.Signature(), cfg.Name, m.tok.kind, m.from, m.to, i)
				}
			}
		}
	}
	return eng
}

// runPair executes one (method, config, policy, variant) cell on the engine
// and the oracle and asserts identical outcomes — Result or error text, and
// the simulated activity counters, which the oracle defines: every arrival,
// operand delivery and phase completion it processes is one event, however
// few of them the engine had to dequeue. Returns both results for
// independent MethodRun assembly.
func runPair(t *testing.T, cfg Config, res *fabric.Resolution, p BranchPolicy, v diffVariant) (Result, Result, bool) {
	t.Helper()
	sig := res.Placement.Method.Signature()

	run := func(cap int) (Result, Result, error, error) {
		event, reference := newDiffEngine(t, cfg, res, p, v, cap), v.ref(cfg, res, p, cap)
		ev, evErr := event.Run()
		rf, rfErr := reference.simulate()
		if got := event.Stats(); got.Events != reference.events || got.MeshCycles != reference.cycles {
			t.Fatalf("%s/%s/%v/%s cap %d: event loop accounts %d events over %d mesh cycles, reference %d over %d",
				sig, cfg.Name, p, v.name, cap, got.Events, got.MeshCycles, reference.events, reference.cycles)
		}
		return ev, rf, evErr, rfErr
	}

	cap := v.cap
	ev, rf, evErr, rfErr := run(cap)
	if evErr == nil && ev.TimedOut && v.short < cap {
		// Timeout runs cost the oracle cap×O(nodes) work; compare
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
		// In name order, not map order: TestEventsAtEveryCap samples every
		// ninth method, and its count must repeat from run to run.
		for _, name := range c.MethodNames() {
			methods = append(methods, c.Methods[name])
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

// TestEventsAtEveryCap stops both loops at every mesh cycle of a run's
// first 159, when express messages are still in flight: the timed-out
// Result and the simulated event count must match the reference loop's at
// each cap, so the hops an undelivered message has virtually made are
// accounted exactly (rule 3 of the engine_event.go header).
func TestEventsAtEveryCap(t *testing.T) {
	methods := diffMethods(t)
	timedOut := 0
	for _, cfg := range Configurations() {
		for k := 0; k < len(methods); k += 9 {
			res, err := DeployMethod(cfg, methods[k])
			if err != nil {
				continue // ineligible for this fabric
			}
			for _, fold := range []bool{false, true} {
				for cap := 1; cap < 160; cap++ {
					v := diffVariant{name: "capped", fold: fold, cap: cap, short: cap}
					if ev, _, completed := runPair(t, cfg, res, BranchPolicy(cap&1), v); completed && ev.TimedOut {
						timedOut++
					}
				}
			}
		}
	}
	if timedOut < 3000 {
		t.Fatalf("only %d timed-out runs compared; corpus collapsed", timedOut)
	}
	t.Logf("%d timed-out runs match the reference loop's result and event count", timedOut)
}

// fuzzCell runs one generated method on both loops: method `pick` of a
// 12-method population grown from seed, on configuration cfg, under
// differential variant `variant` — or, from 128 up, stopped at mesh cycle
// variant-127 with folding on odd values — with branch policy `policy`
// (all taken modulo their range).
func fuzzCell(t *testing.T, seed int64, pick uint16, cfg, variant uint8, policy bool) {
	var methods []*classfile.Method
	for _, c := range workload.Generate(workload.GenConfig{Seed: seed, Count: 12}) {
		for _, name := range c.MethodNames() {
			methods = append(methods, c.Methods[name])
		}
	}
	configs, variants := Configurations(), diffVariants()
	c := configs[int(cfg)%len(configs)]
	res, err := DeployMethod(c, methods[int(pick)%len(methods)])
	if err != nil {
		return // ineligible for this fabric
	}
	v := variants[int(variant)%len(variants)]
	if variant >= 128 {
		v = diffVariant{name: "capped", fold: variant&1 == 1, cap: int(variant) - 127}
		v.short = v.cap
	}
	p := BP1
	if policy {
		p = BP2
	}
	runPair(t, c, res, p, v)
}

// FuzzEventVsReference lets the fuzzer pick the generator seed: any
// divergence between the loops — Result, error text, simulated events —
// on any method the generator can grow is a failure.
func FuzzEventVsReference(f *testing.F) {
	f.Add(int64(9), uint16(0), uint8(0), uint8(0), false)
	// One seed per configuration (Baseline, Compact10, Compact4, Compact2,
	// Sparse2, Hetero2), together spanning every variant: plain, folded,
	// both quiesce schedules, folded-quiesce, and capped runs with folding
	// off and on.
	f.Add(int64(1000), uint16(3), uint8(0), uint8(4), true)
	f.Add(int64(1007), uint16(5), uint8(1), uint8(1), false)
	f.Add(int64(1013), uint16(8), uint8(2), uint8(200), true)
	f.Add(int64(1021), uint16(1), uint8(3), uint8(203), false)
	f.Add(int64(1029), uint16(10), uint8(4), uint8(2), false)
	f.Add(int64(1036), uint16(6), uint8(5), uint8(3), true)
	f.Add(int64(1039), uint16(11), uint8(5), uint8(161), true)
	f.Fuzz(fuzzCell)
}

// TestDifferentialPreemptMatches: a cancelled context must abort the
// engine and the oracle identically — error out with no Result.
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
	rf := newRefEngine(cfg, res, BP1)
	rf.ctx = ctx
	if _, err := rf.simulate(); err == nil {
		t.Fatal("reference loop ignored cancelled context")
	}
}

// TestEventEngineStats sanity-checks the throughput counters: a real run
// simulates events by dequeuing fewer entries, skips cycles during a
// quiesce stall, and lands in the process totals; a job whose policies
// share one run folds that run's simulated counters in twice, its engine
// run and dequeued entries once.
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
	if st.Delivered == 0 || st.Delivered >= st.Events {
		t.Errorf("%d entries dequeued for %d simulated events; want fewer, not none", st.Delivered, st.Events)
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
	if after.Delivered-before.Delivered != st.Delivered {
		t.Errorf("totals delivered delta %d, want %d", after.Delivered-before.Delivered, st.Delivered)
	}
	if after.PolicyRunsShared != before.PolicyRunsShared {
		t.Error("a bare engine run counted as a shared policy run")
	}

	for _, d := range deployments(t) {
		invariant := metaFor(d.res.Placement.Method).policyInvariant
		before = TotalEngineStats()
		run, err := (&Runner{MaxMeshCycles: 6_000}).RunResolved(d.cfg, d.res)
		if err != nil {
			continue
		}
		after = TotalEngineStats()
		wantRuns, wantShared := uint64(2), uint64(0)
		if invariant {
			wantRuns, wantShared = 1, 1
		}
		if after.Runs-before.Runs != wantRuns || after.PolicyRunsShared-before.PolicyRunsShared != wantShared {
			t.Fatalf("%s: %d runs, %d shared; want %d, %d", run.Signature,
				after.Runs-before.Runs, after.PolicyRunsShared-before.PolicyRunsShared, wantRuns, wantShared)
		}
		if got, want := after.SimulatedMeshCycles-before.SimulatedMeshCycles, uint64(run.BP1.MeshCycles+run.BP2.MeshCycles); got != want {
			t.Fatalf("%s: totals gained %d mesh cycles, the job simulated %d", run.Signature, got, want)
		}
	}
}
