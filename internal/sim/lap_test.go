package sim

import (
	"bytes"
	"errors"
	"testing"

	"javaflow/internal/fabric"
	"javaflow/internal/workload"
)

// TestBenchLapCounters runs the repository benchmark's lap in-process — the
// first 800 methods of the (2014, 1580) corpus on every configuration
// through Runner.RunResolved at jfserved's default cycle bound — and pins
// its algorithmic profile without a timer: the simulated statistics
// (events, mesh cycles) are what the oracle (refEngine) counts and must
// never move, while the work actually done (engine runs, queue entries
// dequeued) must stay where policy sharing and express delivery put it.
// Hop by hop, HEAD and TAIL were 579 k of the lap's serial entries; express
// HEAD and TAIL (rules 4 and 5 in engine_event.go) leave 185 k.
func TestBenchLapCounters(t *testing.T) {
	methods := workload.Corpus(2014, 1580)[:800]
	runner := &Runner{MaxMeshCycles: 400_000}
	before := TotalEngineStats()
	jobs := 0
	for _, cfg := range Configurations() {
		for _, m := range methods {
			res, err := DeployMethod(cfg, m)
			if err != nil {
				var le *fabric.LoadError
				if !errors.As(err, &le) {
					t.Fatal(err)
				}
				continue
			}
			if _, err := runner.RunResolved(cfg, res); err != nil {
				t.Fatal(err)
			}
			jobs++
		}
	}
	after := TotalEngineStats()

	if jobs != 4794 {
		t.Errorf("%d accepted jobs, want 4794", jobs)
	}
	if got := after.Events - before.Events; got != 5_501_904 {
		t.Errorf("%d simulated events, want 5501904", got)
	}
	if got := after.SimulatedMeshCycles - before.SimulatedMeshCycles; got != 700_107 {
		t.Errorf("%d simulated mesh cycles, want 700107", got)
	}
	if got := after.Runs - before.Runs; got != 5814 {
		t.Errorf("%d engine runs, want 5814 (policy-invariant methods run once)", got)
	}
	if got := after.PolicyRunsShared - before.PolicyRunsShared; got != 3774 {
		t.Errorf("%d shared policy runs, want 3774", got)
	}
	events, delivered := after.Events-before.Events, after.Delivered-before.Delivered
	if delivered != 1_117_623 {
		t.Errorf("%d queue entries dequeued, want 1117623", delivered)
	}
	if float64(delivered) > 0.21*float64(events) {
		t.Errorf("%d queue entries dequeued for %d simulated events (%.3f), want <= 0.21: express delivery stopped eliding",
			delivered, events, float64(delivered)/float64(events))
	}
	if mem, reg := after.Serial.Memory-before.Serial.Memory, after.Serial.Register-before.Serial.Register; mem != 54_234 || reg != 366_882 {
		t.Errorf("%d MEMORY and %d REGISTER entries dequeued, want 54234 and 366882", mem, reg)
	}
	headTail := after.Serial.Head - before.Serial.Head + after.Serial.Tail - before.Serial.Tail
	if headTail > 190_000 {
		t.Errorf("%d HEAD and TAIL entries dequeued, want <= 190000: HEAD or TAIL is walking hop by hop again", headTail)
	}
	t.Logf("%d jobs, %d runs, %d events, %d delivered (%d HEAD and TAIL)", jobs, after.Runs-before.Runs, events, delivered, headTail)
}

// TestRunResolvedMatchesReference: the job-level path — one engine run
// shared by both policies when the method never asks the predictor a
// forward question, two otherwise — must encode to the bytes two oracle
// runs produce.
func TestRunResolvedMatchesReference(t *testing.T) {
	const cap = 6_000
	runner := &Runner{MaxMeshCycles: cap}
	before := TotalEngineStats()
	deps := deployments(t)
	for _, d := range deps {
		got, gotErr := runner.RunResolved(d.cfg, d.res)
		want := MethodRun{Signature: d.res.Placement.Method.Signature()}
		var wantErr error
		for _, policy := range []BranchPolicy{BP1, BP2} {
			rf := newRefEngine(d.cfg, d.res, policy)
			rf.cycleCap = cap
			r, err := rf.simulate()
			if err != nil {
				wantErr = err
				break
			}
			r.Policy = policy
			if policy == BP1 {
				want.BP1 = r
			} else {
				want.BP2 = r
			}
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s/%s: RunResolved error %v, reference %v", want.Signature, d.cfg.Name, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		gotBytes, err := got.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Fatalf("%s/%s: RunResolved %+v, reference %+v", want.Signature, d.cfg.Name, got, want)
		}
	}
	shared := int(TotalEngineStats().PolicyRunsShared - before.PolicyRunsShared)
	if shared == 0 || shared == len(deps) {
		t.Fatalf("%d of %d jobs shared one run; want both kinds exercised", shared, len(deps))
	}
	t.Logf("%d of %d jobs shared one engine run", shared, len(deps))
}

// TestDeployAllocations gates the cold deploy path's allocations: verify +
// load + resolve of the bench lap's 800 methods on every configuration.
// Opcode facts are table lookups and the needs-up walk reuses one set of
// working buffers per method, so what is left is mostly the Resolution's
// own slices: about 82 per deployment.
func TestDeployAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	methods := workload.Corpus(2014, 1580)[:800]
	configs := Configurations()
	perSweep := testing.AllocsPerRun(2, func() {
		for _, cfg := range configs {
			for _, m := range methods {
				_, _ = DeployMethod(cfg, m) // a rejection allocates too, and is counted
			}
		}
	})
	perDeploy := perSweep / float64(len(configs)*len(methods))
	if perDeploy > 85 {
		t.Fatalf("%.1f allocations per deployment, want <= 85", perDeploy)
	}
	t.Logf("%.2f allocations per deployment", perDeploy)
}

// BenchmarkEngineRun pits the engine against the clock-by-clock oracle on
// the slowest named workload method (by simulated mesh cycles on the
// tightest serial budget). All sub-benches execute the identical resolved
// deployment; the differential tests prove the results byte-identical, so
// the delta is pure loop mechanics. "event" is the path the service runs —
// one engine, Reset per run, as the pooled Runner.RunResolved does — and
// "fresh" the same loop on a new engine per run, so the gap between the two
// is what reuse buys. CI guards "event" at ≥5x fewer ns/op than
// "reference". "lap" is the repository benchmark's lap in-process — 800
// corpus methods on every configuration through Runner.RunResolved,
// deployments resolved outside the timer — reporting ns and dequeued queue
// entries per job; tracked, not gated.
func BenchmarkEngineRun(b *testing.B) {
	cfg := configByName(b, "Compact2")
	const maxCycles = 400_000

	var slowRes *fabric.Resolution
	slowCycles := 0
	slowSig := ""
	for _, m := range workload.NamedMethods() {
		res, err := DeployMethod(cfg, m)
		if err != nil {
			continue
		}
		eng := NewEngine(cfg, res, BP1)
		eng.SetMaxCycles(maxCycles)
		r, err := eng.Run()
		if err != nil || r.TimedOut {
			continue
		}
		if r.MeshCycles > slowCycles {
			slowCycles, slowRes, slowSig = r.MeshCycles, res, m.Signature()
		}
	}
	if slowRes == nil {
		b.Fatal("no runnable named method")
	}
	b.Logf("slowest method: %s (%d mesh cycles on %s)", slowSig, slowCycles, cfg.Name)

	b.Run("event", func(b *testing.B) {
		b.ReportAllocs()
		eng := NewEngine(cfg, slowRes, BP1)
		for i := 0; i < b.N; i++ {
			eng.Reset(cfg, slowRes, BP1)
			eng.SetMaxCycles(maxCycles)
			if _, err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := NewEngine(cfg, slowRes, BP1)
			eng.SetMaxCycles(maxCycles)
			if _, err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rf := newRefEngine(cfg, slowRes, BP1)
			rf.cycleCap = maxCycles
			if _, err := rf.simulate(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lap", func(b *testing.B) {
		type job struct {
			cfg Config
			res *fabric.Resolution
		}
		var jobs []job
		for _, c := range Configurations() {
			for _, m := range workload.Corpus(2014, 1580)[:800] {
				if res, err := DeployMethod(c, m); err == nil {
					jobs = append(jobs, job{c, res})
				}
			}
		}
		runner := &Runner{MaxMeshCycles: maxCycles}
		b.ReportAllocs()
		b.ResetTimer()
		before := TotalEngineStats()
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				if _, err := runner.RunResolved(j.cfg, j.res); err != nil {
					b.Fatal(err)
				}
			}
		}
		n := float64(b.N * len(jobs))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/job")
		b.ReportMetric(float64(TotalEngineStats().Delivered-before.Delivered)/n, "dequeued/job")
	})
}
