package sim

import (
	"bytes"
	"testing"

	"javaflow/internal/fabric"
	"javaflow/internal/workload"
)

// TestBenchLapCounters runs the repository benchmark's lap in-process — the
// first 800 methods of the (2014, 1580) corpus on every configuration
// through Runner.RunResolved at jfserved's default cycle bound — and pins
// its algorithmic profile without a timer: the simulated statistics
// (events, mesh cycles) are what the reference loop would count and must
// never move, while the work actually done (engine runs, queue entries
// dequeued) must stay where policy sharing and express delivery put it.
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
				if !asLoadError(err, &le) {
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
	if float64(delivered) > 0.35*float64(events) {
		t.Errorf("%d queue entries dequeued for %d simulated events (%.3f), want <= 0.35: express delivery stopped eliding",
			delivered, events, float64(delivered)/float64(events))
	}
	t.Logf("%d jobs, %d runs, %d events, %d delivered", jobs, after.Runs-before.Runs, events, delivered)
}

// TestRunResolvedMatchesReference: the job-level path — one engine run
// shared by both policies when the method never asks the predictor a
// forward question, two otherwise — must encode to the bytes two
// reference-loop runs produce.
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
			rf := NewEngine(d.cfg, d.res, policy)
			rf.SetMaxCycles(cap)
			r, err := rf.RunReference()
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
