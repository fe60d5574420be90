package sim

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"javaflow/internal/fabric"
)

// Engine reuse falls under the package's byte-identity invariant: an engine
// that has been Reset must be indistinguishable from a fresh one, whatever
// the previous run left in its queues, node buffers and tables.

// countdownCtx reports cancellation from its (polls+1)-th Err call on — a
// deterministic stand-in for a request context cancelled mid-run.
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	if c.polls > 0 {
		c.polls--
		return nil
	}
	return context.Canceled
}

// reuseCell is one engine execution: a deployment, a policy and the
// options set between Reset and Run.
type reuseCell struct {
	cfg     Config
	res     *fabric.Resolution
	policy  BranchPolicy
	variant diffVariant // folding and quiesce schedule
	cap     int
	polls   int // >= 0 attaches a countdownCtx cancelling after that many polls
}

func (c reuseCell) arm(e *Engine) {
	c.variant.arm(e, c.cap)
	if c.polls >= 0 {
		e.SetPreempt(&countdownCtx{Context: context.Background(), polls: c.polls})
	}
}

// deployments resolves every diff method on every configuration.
func deployments(t *testing.T) []reuseCell {
	t.Helper()
	var out []reuseCell
	for _, cfg := range Configurations() {
		for _, m := range diffMethods(t) {
			res, err := DeployMethod(cfg, m)
			if err != nil {
				continue // ineligible for this fabric
			}
			out = append(out, reuseCell{cfg: cfg, res: res, polls: -1})
		}
		// Loop nests: back-jump predictor state that an aborted run leaves
		// half-way through its 9-in-10 pattern.
		for depth := 1; depth <= 2; depth++ {
			res, err := DeployMethod(cfg, loopyMethod(t, depth))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, reuseCell{cfg: cfg, res: res, polls: -1})
		}
	}
	return out
}

// runState is every scalar an execution mutates. A Reset engine's must
// equal a fresh engine's before the run starts: a stale order counter shifts
// every key alike and a stale TAIL hold may fall before the first park, so
// comparing outcomes alone would let either survive.
type runState struct {
	fired, serialNow, meshNow, meshTick       int
	tailHeldAt, tailPos, liveBehind, tailHold int
	seq, executingCount, serviceCount         int
	serialQueued, meshQueued, doneQueued      int
	finished, arriving                        bool
	stats                                     EngineStats
	dequeued                                  [numKinds]uint64
}

func stateOf(e *Engine) runState {
	return runState{
		fired: e.fired, serialNow: e.serialNow, meshNow: e.meshNow, meshTick: e.meshTick,
		tailHeldAt: e.tailHeldAt, tailPos: e.tailPos, liveBehind: e.liveBehind, tailHold: e.tailHold,
		seq: e.seq, executingCount: e.executingCount, serviceCount: e.serviceCount,
		serialQueued: e.serialEv.n, meshQueued: e.meshEv.n, doneQueued: e.doneEv.n,
		finished: e.finished, arriving: e.arrival != nil,
		stats: e.stats, dequeued: e.dequeued,
	}
}

// zeroNodes fails unless every node of a Reset engine is a zero nodeState
// apart from its held buffer's capacity: a stale HEAD clock would let a
// node fire on the previous run's HEAD, a stale notice flag would keep it
// from queueing its notice.
func zeroNodes(t *testing.T, e *Engine) {
	t.Helper()
	for i, n := range e.nodes {
		z := n
		z.held = nil
		if len(n.held) != 0 || !reflect.DeepEqual(z, nodeState{}) {
			t.Fatalf("node %d after Reset: %+v", i, n)
		}
	}
}

func sameOutcome(t *testing.T, what string, c reuseCell, got Result, gotErr error, want Result, wantErr error) {
	t.Helper()
	sig := c.res.Placement.Method.Signature()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s/%s/%v: reused engine error %v, %s %v", sig, c.cfg.Name, c.policy, gotErr, what, wantErr)
	}
	if got != want {
		t.Fatalf("%s/%s/%v: reused engine diverges from %s:\n  reused: %+v\n  want:   %+v",
			sig, c.cfg.Name, c.policy, what, got, want)
	}
}

// TestDirtyEngineReuse drives ONE engine through a shuffled mix of
// deployments (all sizes, all six configurations, both policies, folding
// and quiesce variants), interleaved with runs that leave it dirty: cycle
// caps that time out with tokens in flight — some while the bundle is still
// entering — and contexts cancelled at the first poll and mid-run, each
// leaving express messages in flight, an advanced order counter and, often,
// a held TAIL. After every Reset the engine's run state must equal a fresh
// NewEngine's and so must the run — Result, error text and event counters —
// and each completed job's encoded MethodRun must equal both the fresh
// engine's and the oracle's.
func TestDirtyEngineReuse(t *testing.T) {
	deps := deployments(t)
	rng := rand.New(rand.NewSource(13))
	rng.Shuffle(len(deps), func(i, j int) { deps[i], deps[j] = deps[j], deps[i] })

	eng := new(Engine)
	// run executes c on the reused engine and on a fresh one and requires
	// identical outcomes.
	run := func(c reuseCell) (Result, error) {
		eng.Reset(c.cfg, c.res, c.policy)
		zeroNodes(t, eng)
		c.arm(eng)
		fresh := NewEngine(c.cfg, c.res, c.policy)
		c.arm(fresh)
		if reset, zero := stateOf(eng), stateOf(fresh); reset != zero {
			t.Fatalf("Reset left run state behind:\n  reset: %+v\n  fresh: %+v", reset, zero)
		}
		got, gotErr := eng.Run()
		want, wantErr := fresh.Run()
		sameOutcome(t, "fresh engine", c, got, gotErr, want, wantErr)
		if eng.Stats() != fresh.Stats() {
			t.Fatalf("%s/%s: reused engine stats %+v, fresh %+v",
				c.res.Placement.Method.Signature(), c.cfg.Name, eng.Stats(), fresh.Stats())
		}
		return got, gotErr
	}
	// dirty leaves the engine mid-execution, on the deployment about to run
	// (same branch sites, same table sizes) or on some other one.
	dirty := func(next reuseCell) {
		c := reuseCell{cfg: next.cfg, res: next.res, polls: -1}
		if rng.Intn(2) == 0 {
			c = deps[rng.Intn(len(deps))]
		}
		c.policy = BranchPolicy(rng.Intn(2))
		switch rng.Intn(5) {
		case 0, 4: // times out with tokens in flight and loops half-way round
			c.cap = 1 + rng.Intn(2000)
			run(c)
		case 1: // cancelled at the first poll: bundle injected, nothing moved
			c.cap, c.polls = 120_000, 0
			if _, err := run(c); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v", err)
			}
		case 2: // cancelled mid-run, when a quiesce jump crosses a poll boundary
			c.cap, c.polls = 120_000, 1
			c.variant = diffVariant{qAt: 2 + rng.Intn(20), qFor: 2 * preemptEvery}
			// (The tiniest methods return before the window opens.)
			if r, err := run(c); !errors.Is(err, context.Canceled) && (err != nil || r.MeshCycles > c.variant.qAt) {
				t.Fatalf("mid-run cancellation returned %+v, %v", r, err)
			}
		case 3: // stopped within 60 cycles, the bundle often still entering
			c.cap = 1 + rng.Intn(60)
			run(c)
		}
	}

	jobs, dirtied := 0, 0
	// runJob runs both policies of d on the reused engine against the
	// oracle and compares the encoded MethodRuns; it reports a timeout
	// instead of paying the oracle's cap×O(nodes) for it.
	runJob := func(d reuseCell) (timedOut bool) {
		var reused, reference MethodRun
		reused.Signature = d.res.Placement.Method.Signature()
		reference.Signature = reused.Signature
		for _, policy := range []BranchPolicy{BP1, BP2} {
			d.policy = policy
			if rng.Intn(2) == 0 {
				// Also between a job's two policies, where Reset would
				// otherwise keep the distance tables.
				dirty(d)
				dirtied++
			}
			ev, err := run(d)
			if err == nil && ev.TimedOut && d.cap > d.variant.short {
				return true
			}
			want, wantErr := d.variant.ref(d.cfg, d.res, policy, d.cap).simulate()
			sameOutcome(t, "reference loop", d, ev, err, want, wantErr)
			if err != nil {
				return false // stalled identically on both
			}
			ev.Policy, want.Policy = policy, policy
			if policy == BP1 {
				reused.BP1, reference.BP1 = ev, want
			} else {
				reused.BP2, reference.BP2 = ev, want
			}
		}
		got, err := reused.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s/%s: reused-engine MethodRun encoding differs from the reference loop's",
				reused.Signature, d.cfg.Name)
		}
		jobs++
		return false
	}
	variants := diffVariants()
	for _, d := range deps {
		d.variant = variants[rng.Intn(len(variants))]
		d.cap = d.variant.cap
		if runJob(d) {
			d.cap = d.variant.short // as the differential suite does
			runJob(d)
		}
	}
	if jobs < 200 || dirtied < 100 {
		t.Fatalf("only %d jobs compared, %d dirtying runs; corpus collapsed", jobs, dirtied)
	}
	t.Logf("%d jobs byte-identical on one engine across %d dirtying runs", jobs, dirtied)
}

// TestPoolHygiene: RunResolved must hand its engine back on every exit
// path, and a pooled engine must not pin the deployment (LRU-evictable
// upstream) or the request context of the job it last ran.
func TestPoolHygiene(t *testing.T) {
	small := deployments(t)[0]
	cfg := configByName(t, "Baseline")
	long, err := DeployMethod(cfg, loopyMethod(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		cfg     Config
		res     *fabric.Resolution
		runner  func() *Runner
		wantErr bool
	}{
		{"completed", small.cfg, small.res, func() *Runner { return &Runner{Ctx: context.Background()} }, false},
		{"timed out", cfg, long, func() *Runner { return &Runner{MaxMeshCycles: 50} }, false},
		{"cancelled before the first cycle", cfg, long, func() *Runner { return &Runner{Ctx: cancelled} }, true},
		{"cancelled mid-run", cfg, long, func() *Runner {
			return &Runner{MaxMeshCycles: 2_000_000_000, Ctx: &countdownCtx{Context: context.Background(), polls: 2}}
		}, true},
	} {
		// The pool may hand back a brand-new engine (another P, a GC, the
		// race detector's random drops), so look until a recycled one —
		// recognisable by its buffers — shows up.
		var e *Engine
		for try := 0; try < 50 && (e == nil || e.nodes == nil); try++ {
			if _, err := tc.runner().RunResolved(tc.cfg, tc.res); (err != nil) != tc.wantErr {
				t.Fatalf("%s: err = %v", tc.name, err)
			}
			e = enginePool.Get().(*Engine)
		}
		if e.nodes == nil {
			t.Fatalf("%s: engine never came back to the pool", tc.name)
		}
		if e.placement != nil || e.resolution != nil || e.meta != nil || e.preemptCtx != nil || e.cfg.Fabric != nil {
			t.Fatalf("%s: pooled engine still references its last job", tc.name)
		}
	}
}

// TestRunResolvedSteadyStateAllocs is the allocation diet's regression
// gate: on a warmed pool a job (two engine runs) may allocate its three
// signature strings and little else. Allocation counts are deterministic,
// so this replaces CI's parsed-benchmark ceiling.
func TestRunResolvedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	deps := deployments(t)
	runner := &Runner{MaxMeshCycles: 120_000}
	sweep := func() {
		for _, d := range deps {
			if _, err := runner.RunResolved(d.cfg, d.res); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep() // warm: the pooled engine grows to the largest deployment
	perSweep := testing.AllocsPerRun(5, sweep)
	if perJob := perSweep / float64(len(deps)); perJob > 8 {
		t.Fatalf("%.1f allocs per job on a warmed pool, want <= 8", perJob)
	} else {
		t.Logf("%.2f allocs per job over %d deployments", perJob, len(deps))
	}
}

// TestRunResolvedConcurrentMatchesSerial hammers the pool from 8
// goroutines over shared resolutions (run under -race in CI): every result
// must equal the serial one.
func TestRunResolvedConcurrentMatchesSerial(t *testing.T) {
	deps := deployments(t)
	if len(deps) > 120 {
		deps = deps[:120]
	}
	runner := &Runner{MaxMeshCycles: 20_000}
	serial := make([]MethodRun, len(deps))
	for i, d := range deps {
		var err error
		if serial[i], err = runner.RunResolved(d.cfg, d.res); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for _, i := range rng.Perm(len(deps)) {
				got, err := runner.RunResolved(deps[i].cfg, deps[i].res)
				if err != nil || got != serial[i] {
					t.Errorf("goroutine %d: %s/%s = %+v, %v; serial %+v",
						g, serial[i].Signature, deps[i].cfg.Name, got, err, serial[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
