package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"javaflow/internal/admit"
	"javaflow/internal/classfile"
	"javaflow/internal/dispatch"
	"javaflow/internal/fabric"
	"javaflow/internal/obs"
	"javaflow/internal/peer"
	"javaflow/internal/replicate"
	"javaflow/internal/scenario"
	"javaflow/internal/scenario/chaos"
	"javaflow/internal/scenario/chaosfs"
	"javaflow/internal/serve"
	"javaflow/internal/sim"
	"javaflow/internal/store"
)

// RunScenario executes a resolved scenario bundle end to end: the sweep tier
// runs the resolved methods × configurations through the context's
// BatchRunner — the exact code path SimResults uses, so catalog entries stay
// byte-identical to the legacy hard-coded sweeps — then each scheduled
// fault, interpreted by the chaos harness against real
// dispatch/replicate/store instances.
func (c *Context) RunScenario(res *scenario.Resolved) (*scenario.Report, error) {
	b := res.Bundle
	rep := &scenario.Report{Scenario: b.Name, Tier: b.Tier}

	if len(res.Methods) > 0 {
		runner, err := c.BatchRunner()
		if err != nil {
			return nil, err
		}
		jobs := make([]serve.Job, len(res.Methods))
		for _, cfg := range res.Configs {
			for i, m := range res.Methods {
				jobs[i] = serve.Job{Config: cfg, Method: m}
			}
			results := runner.RunBatchCycles(context.Background(), jobs, res.MaxMeshCycles)
			cr, err := serve.CollectRuns(cfg, results)
			if err != nil {
				return nil, fmt.Errorf("experiments: scenario %s on %s: %w", b.Name, cfg.Name, err)
			}
			digest, err := scenario.DigestRuns(cr.Runs)
			if err != nil {
				return nil, err
			}
			rep.Configs = append(rep.Configs, scenario.ConfigDigest{
				Config: cfg.Name, Methods: len(cr.Runs),
				Skipped: cr.Skipped, TimedOut: cr.TimedOut, Digest: digest,
			})
		}
	}

	for _, f := range b.Faults {
		out, err := c.runFault(f, res)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %s, fault %s: %w", b.Name, f.Kind, err)
		}
		rep.Faults = append(rep.Faults, out)
	}

	rep.Finish()
	return rep, nil
}

// drillBudget bounds the corpus each fault drill runs: the drills prove
// recovery properties, not throughput, so a handful of methods suffices.
const drillBudget = 8

func drillMethods(res *scenario.Resolved) []*classfile.Method {
	n := len(res.Methods)
	if n > drillBudget {
		n = drillBudget
	}
	return res.Methods[:n]
}

func drillJobs(cfg sim.Config, methods []*classfile.Method) []serve.Job {
	jobs := make([]serve.Job, len(methods))
	for i, m := range methods {
		jobs[i] = serve.Job{Config: cfg, Method: m}
	}
	return jobs
}

func (c *Context) runFault(f scenario.Fault, res *scenario.Resolved) (scenario.FaultOutcome, error) {
	if len(res.Methods) == 0 || len(res.Configs) == 0 {
		return scenario.FaultOutcome{}, fmt.Errorf("fault schedules need a non-empty workload")
	}
	switch f.Kind {
	case scenario.FaultBackendDeath:
		return c.drillBackendDeath(f, res)
	case scenario.FaultPeerFlap:
		return c.drillPeerFlap(res)
	case scenario.FaultGossipPartition:
		return c.drillGossipPartition(res)
	case scenario.FaultStoreCorruption:
		return c.drillStoreCorruption(f, res)
	case scenario.FaultDeadlinePressure:
		return c.drillDeadlinePressure(f, res)
	case scenario.FaultOverload:
		return c.drillOverload(f, res)
	case scenario.FaultSlowPeer:
		return c.drillSlowPeer(f, res)
	default:
		return scenario.FaultOutcome{}, fmt.Errorf("unknown fault kind %q", f.Kind)
	}
}

// servePeer starts an in-process jfserved-shaped peer: a real HTTP server on
// a loopback port over the standard serve handler (optionally wrapped by an
// injector), backed by its own scheduler. Returns the base URL and a stop
// function.
func servePeer(handler http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	stop := func() { srv.Close() }
	return "http://" + ln.Addr().String(), stop, nil
}

// namedBackend pins a drill backend's ring name: servePeer binds ephemeral
// ports, and letting the port into the name would reshuffle the consistent
// hash — and with it which jobs the doomed backend owns — on every run.
type namedBackend struct {
	chaos.Backend
	name string
}

func (b namedBackend) Name() string { return b.name }

// drillBackendDeath re-runs PR 3's mid-batch death drill from the fault
// schedule: two live in-process peers behind a consistent-hash dispatcher,
// one wrapped in a chaos.FlakyBackend that dies after f.After jobs. The
// batch must still complete with results byte-identical to a purely local
// run, via retries and local fallback — and the structured event journal
// must narrate the episode: a dispatch "suspension" when the backend
// dies, a dispatch "recovery" when a probe sees it revived. A drill that
// survives the fault but leaves no journal trail fails, because an
// operator would have been blind to what just happened.
func (c *Context) drillBackendDeath(f scenario.Fault, res *scenario.Resolved) (scenario.FaultOutcome, error) {
	out := scenario.FaultOutcome{Kind: f.Kind}
	methods := drillMethods(res)
	cfg := res.Configs[0]
	configs := sim.Configurations()

	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	urls := make([]string, 2)
	for i := range urls {
		sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, MaxMeshCycles: res.MaxMeshCycles})
		url, stop, err := servePeer(serve.NewHandler(serve.NewService(sched, configs, methods)))
		if err != nil {
			return out, err
		}
		stops = append(stops, stop)
		urls[i] = url
	}

	after := int64(f.After)
	if after == 0 {
		after = 1
	}
	flaky := &chaos.FlakyBackend{
		Inner:     namedBackend{dispatch.NewRemote(urls[0], nil), "drill-peer-0"},
		FailAfter: after,
	}
	local := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, MaxMeshCycles: res.MaxMeshCycles})
	journal := obs.NewJournal("drill", 128)
	d, err := dispatch.NewWithBackends(
		[]dispatch.Backend{flaky, namedBackend{dispatch.NewRemote(urls[1], nil), "drill-peer-1"}},
		dispatch.Options{
			Local: local, MaxInflight: 1,
			Journal: journal,
			// One failure suspends, and probes fire within milliseconds, so
			// the revival below is observed without a real backoff wait.
			FailureThreshold: 1,
			ProbeBackoffBase: time.Millisecond,
			ProbeBackoffCap:  2 * time.Millisecond,
		},
	)
	if err != nil {
		return out, err
	}

	jobs := drillJobs(cfg, methods)
	got := d.RunBatchCycles(context.Background(), jobs, res.MaxMeshCycles)
	want := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, MaxMeshCycles: res.MaxMeshCycles}).
		RunBatchCycles(context.Background(), jobs, res.MaxMeshCycles)

	stats := d.Stats()
	out.Injected = flaky.Calls() > after && (stats.Retries > 0 || stats.LocalFallbacks > 0)
	ok, detail := sameJobResults(got, want)

	// Revive the dead backend and keep offering jobs until a probe lands
	// on it, turning the suspension into a journaled recovery.
	flaky.Revive()
	deadline := time.Now().Add(5 * time.Second)
	for !journalHasKind(journal, "dispatch", "recovery") && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		d.RunBatchCycles(context.Background(), jobs[:1], res.MaxMeshCycles)
	}
	sawSuspension := journalHasKind(journal, "dispatch", "suspension")
	sawRecovery := journalHasKind(journal, "dispatch", "recovery")

	out.Recovered = ok && sawSuspension && sawRecovery
	out.Detail = fmt.Sprintf("retries=%d localFallbacks=%d suspensionEvent=%t recoveryEvent=%t",
		stats.Retries, stats.LocalFallbacks, sawSuspension, sawRecovery)
	if !ok {
		out.Detail += "; " + detail
	}
	return out, nil
}

// journalHasKind reports whether the journal recorded at least one event
// of the given subsystem and kind.
func journalHasKind(j *obs.Journal, subsystem, kind string) bool {
	return j.CountsByKind()[subsystem+"/"+kind] > 0
}

func sameJobResults(got, want []serve.JobResult) (bool, string) {
	if len(got) != len(want) {
		return false, fmt.Sprintf("result count %d != %d", len(got), len(want))
	}
	for i := range got {
		if (got[i].Err == nil) != (want[i].Err == nil) {
			return false, fmt.Sprintf("%s: error divergence: %v vs %v",
				want[i].Job.Method.Signature(), got[i].Err, want[i].Err)
		}
		if got[i].Err != nil {
			continue
		}
		gb, err := got[i].Run.MarshalBinary()
		if err != nil {
			return false, err.Error()
		}
		wb, err := want[i].Run.MarshalBinary()
		if err != nil {
			return false, err.Error()
		}
		if string(gb) != string(wb) {
			return false, fmt.Sprintf("%s: encoded run differs", want[i].Job.Method.Signature())
		}
	}
	return true, ""
}

// drillPeerFlap re-runs PR 5's flapping-peer drill: a source node computes
// and flushes runs (one record per segment), a destination replicates while
// the source 500s the final segment, partial cursor progress must persist,
// and after the peer heals the next round must converge byte-identically.
func (c *Context) drillPeerFlap(res *scenario.Resolved) (scenario.FaultOutcome, error) {
	out := scenario.FaultOutcome{Kind: scenario.FaultPeerFlap}
	methods := drillMethods(res)
	cfg := res.Configs[0]
	ctx := context.Background()

	srcDir, err := os.MkdirTemp("", "jf-flap-src-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(srcDir)
	dstDir, err := os.MkdirTemp("", "jf-flap-dst-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dstDir)

	src, err := store.Open(srcDir, store.Options{MaxSegmentBytes: 1})
	if err != nil {
		return out, err
	}
	defer src.Close()
	srcSched := serve.NewScheduler(serve.SchedulerOptions{
		Workers: 2, MaxMeshCycles: res.MaxMeshCycles, Store: src,
	})
	for _, r := range srcSched.RunBatchCycles(ctx, drillJobs(cfg, methods), res.MaxMeshCycles) {
		if r.Err != nil && !isLoadError(r.Err) {
			return out, r.Err
		}
	}
	if err := src.Flush(); err != nil {
		return out, err
	}
	manifest, err := src.Manifest()
	if err != nil {
		return out, err
	}
	if len(manifest) == 0 {
		return out, fmt.Errorf("source flushed no segments")
	}
	lastSeq := manifest[len(manifest)-1].Seq
	for _, seg := range manifest {
		if seg.Seq > lastSeq {
			lastSeq = seg.Seq
		}
	}

	gate := &chaos.FlapGate{
		Inner: serve.NewHandler(serve.NewService(srcSched, sim.Configurations(), methods)),
		Match: func(r *http.Request) bool {
			return r.URL.Path == fmt.Sprintf("/v1/replicate/segment/%d", lastSeq)
		},
	}
	gate.Down()
	url, stop, err := servePeer(gate)
	if err != nil {
		return out, err
	}
	defer stop()

	dst, err := store.Open(dstDir, store.Options{})
	if err != nil {
		return out, err
	}
	defer dst.Close()
	repl, err := replicate.New(replicate.Options{Store: dst, Peers: []string{url}})
	if err != nil {
		return out, err
	}

	flapErr := repl.SyncNow(ctx)
	partial := repl.Stats().Peers[0].RecordsIngested
	out.Injected = gate.Faults() > 0 && flapErr != nil

	gate.Up()
	if err := repl.SyncNow(ctx); err != nil {
		out.Detail = fmt.Sprintf("post-heal sync failed: %v", err)
		return out, nil
	}
	missing := 0
	for _, m := range methods {
		key := store.RunKeyFor(cfg, m, res.MaxMeshCycles)
		srcRun, ok := src.GetRun(key)
		if !ok {
			continue // skipped (fabric-ineligible) methods never stored
		}
		dstRun, ok := dst.GetRun(key)
		if !ok {
			missing++
			continue
		}
		sb, err := srcRun.MarshalBinary()
		if err != nil {
			return out, err
		}
		db, err := dstRun.MarshalBinary()
		if err != nil {
			return out, err
		}
		if string(sb) != string(db) {
			missing++
		}
	}
	out.Recovered = missing == 0
	out.Detail = fmt.Sprintf("faulted=%d partialIngested=%d missingAfterHeal=%d",
		gate.Faults(), partial, missing)
	return out, nil
}

// drillGossipPartition proves the push path converges without the pull
// loop, and survives a partition. Two nodes with gossip-enabled
// replicators whose periodic pull is never started: node A computes
// results while node B's notify endpoint is down (the push is lost),
// then the partition heals and A's next push must catch B up — to a
// byte-identical union including the records whose push was dropped,
// because A only counts positions B acknowledged and notifications carry
// cumulative segment positions, not diffs.
func (c *Context) drillGossipPartition(res *scenario.Resolved) (scenario.FaultOutcome, error) {
	out := scenario.FaultOutcome{Kind: scenario.FaultGossipPartition}
	methods := drillMethods(res)
	cfg := res.Configs[0]
	ctx := context.Background()
	configs := sim.Configurations()

	aDir, err := os.MkdirTemp("", "jf-gossip-a-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(aDir)
	bDir, err := os.MkdirTemp("", "jf-gossip-b-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(bDir)

	// One record per segment on the origin, so every commit visibly grows
	// the advertised delta.
	aSt, err := store.Open(aDir, store.Options{MaxSegmentBytes: 1})
	if err != nil {
		return out, err
	}
	defer aSt.Close()
	aSched := serve.NewScheduler(serve.SchedulerOptions{
		Workers: 2, MaxMeshCycles: res.MaxMeshCycles, Store: aSt,
	})
	aSvc := serve.NewService(aSched, configs, methods)
	aURL, aStop, err := servePeer(serve.NewHandler(aSvc))
	if err != nil {
		return out, err
	}
	defer aStop()

	bSt, err := store.Open(bDir, store.Options{})
	if err != nil {
		return out, err
	}
	defer bSt.Close()
	bSched := serve.NewScheduler(serve.SchedulerOptions{
		Workers: 2, MaxMeshCycles: res.MaxMeshCycles, Store: bSt,
	})
	bSvc := serve.NewService(bSched, configs, methods)
	gate := &chaos.FlapGate{
		Inner: serve.NewHandler(bSvc),
		Match: func(r *http.Request) bool { return r.URL.Path == "/v1/replicate/notify" },
	}
	bURL, bStop, err := servePeer(gate)
	if err != nil {
		return out, err
	}
	defer bStop()

	// Gossip-only replicators: Start (and with it the pull loop) is never
	// called, so every record B gains below arrived via push.
	aRep, err := replicate.New(replicate.Options{
		Store: aSt, Peers: []string{bURL}, Advertise: aURL, Interval: time.Hour,
	})
	if err != nil {
		return out, err
	}
	bRep, err := replicate.New(replicate.Options{
		Store: bSt, Peers: []string{aURL}, Advertise: bURL, Interval: time.Hour,
	})
	if err != nil {
		return out, err
	}
	aSvc.SetReplicator(aRep)
	bSvc.SetReplicator(bRep)

	// Partitioned phase: commit the first half, advertise into the wall.
	gate.Down()
	half := (len(methods) + 1) / 2
	for _, r := range aSched.RunBatchCycles(ctx, drillJobs(cfg, methods[:half]), res.MaxMeshCycles) {
		if r.Err != nil && !isLoadError(r.Err) {
			return out, r.Err
		}
	}
	partitionErr := aRep.AdvertiseNow(ctx)
	missedDuringPartition := 0
	for _, m := range methods[:half] {
		key := store.RunKeyFor(cfg, m, res.MaxMeshCycles)
		if aSt.HasRun(key) && !bSt.HasRun(key) {
			missedDuringPartition++
		}
	}
	out.Injected = gate.Faults() > 0 && partitionErr != nil && missedDuringPartition > 0

	// Healed phase: commit the second half and advertise again. The
	// receiver pulls synchronously inside the notify handler, so when
	// AdvertiseNow returns, B is caught up — lost pushes and all.
	gate.Up()
	for _, r := range aSched.RunBatchCycles(ctx, drillJobs(cfg, methods[half:]), res.MaxMeshCycles) {
		if r.Err != nil && !isLoadError(r.Err) {
			return out, r.Err
		}
	}
	if err := aRep.AdvertiseNow(ctx); err != nil {
		out.Detail = fmt.Sprintf("post-heal advertisement failed: %v", err)
		return out, nil
	}
	missing := 0
	for _, m := range methods {
		key := store.RunKeyFor(cfg, m, res.MaxMeshCycles)
		srcRun, ok := aSt.GetRun(key)
		if !ok {
			continue // skipped (fabric-ineligible) methods never stored
		}
		dstRun, ok := bSt.GetRun(key)
		if !ok {
			missing++
			continue
		}
		sb, err := srcRun.MarshalBinary()
		if err != nil {
			return out, err
		}
		db, err := dstRun.MarshalBinary()
		if err != nil {
			return out, err
		}
		if string(sb) != string(db) {
			missing++
		}
	}
	out.Recovered = missing == 0
	pulled := int64(0)
	if ps := bRep.Stats().Peers; len(ps) > 0 {
		pulled = ps[0].RecordsIngested
	}
	out.Detail = fmt.Sprintf("notifyFaults=%d missedDuringPartition=%d pulledRecords=%d missingAfterHeal=%d",
		gate.Faults(), missedDuringPartition, pulled, missing)
	return out, nil
}

// drillStoreCorruption flushes runs to a throwaway store, damages the last
// segment on disk (CRC bit-flip or tail truncation), and requires reopen to
// quarantine the damage and a recompute to restore byte-identical records.
func (c *Context) drillStoreCorruption(f scenario.Fault, res *scenario.Resolved) (scenario.FaultOutcome, error) {
	out := scenario.FaultOutcome{Kind: f.Kind}
	methods := drillMethods(res)
	cfg := res.Configs[0]
	ctx := context.Background()

	dir, err := os.MkdirTemp("", "jf-corrupt-*")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return out, err
	}
	sched := serve.NewScheduler(serve.SchedulerOptions{
		Workers: 2, MaxMeshCycles: res.MaxMeshCycles, Store: st,
	})
	expected := make(map[string][]byte)
	for _, r := range sched.RunBatchCycles(ctx, drillJobs(cfg, methods), res.MaxMeshCycles) {
		if r.Err != nil {
			if isLoadError(r.Err) {
				continue
			}
			st.Close()
			return out, r.Err
		}
		data, err := r.Run.MarshalBinary()
		if err != nil {
			st.Close()
			return out, err
		}
		expected[r.Job.Method.Signature()] = data
	}
	if err := st.Close(); err != nil {
		return out, err
	}

	seg, err := chaosfs.LastSegment(dir)
	if err != nil {
		return out, err
	}
	switch f.Mode {
	case scenario.CorruptTruncate:
		err = chaosfs.TruncateTail(seg, 10)
	default: // bitflip
		err = chaosfs.FlipByte(seg, -1, 0x40)
	}
	if err != nil {
		return out, err
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		out.Detail = fmt.Sprintf("reopen after corruption failed: %v", err)
		return out, nil
	}
	defer st2.Close()
	lost := 0
	for _, m := range methods {
		if _, ok := expected[m.Signature()]; !ok {
			continue
		}
		if !st2.HasRun(store.RunKeyFor(cfg, m, res.MaxMeshCycles)) {
			lost++
		}
	}
	out.Injected = lost > 0

	// Recompute through the surviving store: every record must come back
	// byte-identical to its pre-corruption encoding.
	sched2 := serve.NewScheduler(serve.SchedulerOptions{
		Workers: 2, MaxMeshCycles: res.MaxMeshCycles, Store: st2,
	})
	mismatched := 0
	for _, r := range sched2.RunBatchCycles(ctx, drillJobs(cfg, methods), res.MaxMeshCycles) {
		if r.Err != nil {
			if isLoadError(r.Err) {
				continue
			}
			return out, r.Err
		}
		data, err := r.Run.MarshalBinary()
		if err != nil {
			return out, err
		}
		if string(data) != string(expected[r.Job.Method.Signature()]) {
			mismatched++
		}
	}
	out.Recovered = mismatched == 0
	out.Detail = fmt.Sprintf("mode=%s lostRecords=%d mismatchedAfterRecompute=%d",
		modeOrDefault(f.Mode), lost, mismatched)
	return out, nil
}

// drillOverload floods a capped admission gate at 4x capacity (by default)
// with concurrent /v1/run requests, holding the admitted ones inside the
// lane until the rest are answered: the overflow must shed with typed 429s
// carrying a positive integer Retry-After, nothing may 5xx, every admitted
// request must return results byte-identical to a local run, and once the
// flood drains a fresh request must be served normally with the run lane
// back at depth zero.
func (c *Context) drillOverload(f scenario.Fault, res *scenario.Resolved) (scenario.FaultOutcome, error) {
	out := scenario.FaultOutcome{Kind: scenario.FaultOverload}
	cfg := res.Configs[0]
	capN := f.Cap
	if capN == 0 {
		capN = 2
	}
	flood := f.Flood
	if flood == 0 {
		flood = 4 * capN
	}

	// One hostable method for the whole flood, so every admitted response
	// must carry the same bytes.
	var m *classfile.Method
	for _, cand := range drillMethods(res) {
		if _, err := sim.DeployMethod(cfg, cand); err == nil {
			m = cand
			break
		}
	}
	if m == nil {
		return out, fmt.Errorf("no hostable drill method for config %s", cfg.Name)
	}

	sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, MaxMeshCycles: res.MaxMeshCycles})
	svc := serve.NewService(sched, sim.Configurations(), []*classfile.Method{m})
	ac := admit.New(admit.Options{RunCap: capN, Parallelism: 2})
	svc.SetAdmission(ac)
	// Park every admitted run inside the lane until the overflow has been
	// answered, so the lane is full by construction: a request delayed in
	// front of the handler holds no slot, and a store- or cache-fast run
	// would otherwise leave the lane before the next one arrives.
	release := make(chan struct{})
	svc.SetBatchRunner(heldRunner{BatchRunner: sched, release: release})
	url, stop, err := servePeer(serve.NewHandler(svc))
	if err != nil {
		return out, err
	}
	defer stop()

	want, err := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, MaxMeshCycles: res.MaxMeshCycles}).
		RunMethodCycles(context.Background(), cfg, m, res.MaxMeshCycles)
	if err != nil {
		return out, err
	}
	wantBytes, err := want.MarshalBinary()
	if err != nil {
		return out, err
	}

	post := func() (*http.Response, error) {
		body, err := json.Marshal(serve.RunRequest{
			Config: cfg.Name, Method: m.Signature(), MaxMeshCycles: res.MaxMeshCycles,
		})
		if err != nil {
			return nil, err
		}
		return http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	}

	var (
		mu                                  sync.Mutex
		admitted, shed, badShed, other, bad int
		firstErr                            error
	)
	var wg sync.WaitGroup
	answered := make(chan struct{}, flood)
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { answered <- struct{}{} }()
			resp, err := post()
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				admitted++
				var p serve.RunPayload
				if json.Unmarshal(data, &p) != nil {
					bad++
					return
				}
				rb, err := (sim.MethodRun{Signature: p.Signature, BP1: p.BP1, BP2: p.BP2}).MarshalBinary()
				if err != nil || string(rb) != string(wantBytes) {
					bad++
				}
			case http.StatusTooManyRequests:
				shed++
				ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
				if err != nil || ra < 1 {
					badShed++
				}
			default:
				other++
			}
		}()
	}
	// Release the parked requests once everything beyond the lane has been
	// answered. The timeout only keeps a gate that admitted the overflow
	// too from hanging the drill: it then reports injected=false.
	for n, giveUp := 0, time.After(10*time.Second); n < flood-capN; n++ {
		select {
		case <-answered:
		case <-giveUp:
			n = flood
		}
	}
	close(release)
	wg.Wait()
	if firstErr != nil {
		return out, firstErr
	}

	out.Injected = shed > 0

	// Recovery: the flood is gone, so a fresh request must be admitted and
	// the run lane must sit at depth zero again.
	recovered := true
	if resp, err := post(); err != nil {
		recovered = false
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			recovered = false
		}
	}
	if ac.Depth(admit.ClassRun) != 0 {
		recovered = false
	}
	out.Recovered = recovered && bad == 0 && badShed == 0 && other == 0 && admitted > 0
	out.Detail = fmt.Sprintf("flood=%d cap=%d admitted=%d shed429=%d badRetryAfter=%d other=%d byteMismatch=%d",
		flood, capN, admitted, shed, badShed, other, bad)
	return out, nil
}

// heldRunner parks every POST /v1/run job until release is closed — how
// drillOverload keeps admitted requests inside the run lane.
type heldRunner struct {
	serve.BatchRunner
	release <-chan struct{}
}

func (h heldRunner) RunMethodCycles(ctx context.Context, cfg sim.Config, m *classfile.Method, maxCycles int) (sim.MethodRun, error) {
	<-h.release
	return h.BatchRunner.RunMethodCycles(ctx, cfg, m, maxCycles)
}

// drillSlowPeer wedges the only dispatch peer — it accepts connections but
// stalls longer than the client's header timeout before answering — and
// requires the batch to complete byte-identically anyway via timeout,
// suspension, and local fallback, instead of hanging on the slow peer.
func (c *Context) drillSlowPeer(f scenario.Fault, res *scenario.Resolved) (scenario.FaultOutcome, error) {
	out := scenario.FaultOutcome{Kind: scenario.FaultSlowPeer}
	methods := drillMethods(res)
	cfg := res.Configs[0]
	delay := time.Duration(f.DelayMs) * time.Millisecond
	if delay == 0 {
		delay = 2 * time.Second
	}

	sched := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, MaxMeshCycles: res.MaxMeshCycles})
	gate := &chaos.SlowGate{
		Inner: serve.NewHandler(serve.NewService(sched, sim.Configurations(), methods)),
		Match: func(r *http.Request) bool { return r.URL.Path == "/v1/run" },
		Delay: delay,
	}
	gate.Slow()
	url, stop, err := servePeer(gate)
	if err != nil {
		return out, err
	}
	defer stop()

	client := peer.NewClient(1, delay/4)
	local := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, MaxMeshCycles: res.MaxMeshCycles})
	d, err := dispatch.NewWithBackends(
		[]dispatch.Backend{namedBackend{dispatch.NewRemote(url, client), "drill-slow-peer"}},
		dispatch.Options{Local: local, MaxInflight: 1},
	)
	if err != nil {
		return out, err
	}

	jobs := drillJobs(cfg, methods)
	start := time.Now()
	got := d.RunBatchCycles(context.Background(), jobs, res.MaxMeshCycles)
	elapsed := time.Since(start)
	want := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, MaxMeshCycles: res.MaxMeshCycles}).
		RunBatchCycles(context.Background(), jobs, res.MaxMeshCycles)

	stats := d.Stats()
	out.Injected = gate.Delayed() > 0 && stats.LocalFallbacks > 0
	ok, detail := sameJobResults(got, want)
	out.Recovered = ok
	out.Detail = fmt.Sprintf("delayed=%d localFallbacks=%d suspensions=%d elapsed=%s",
		gate.Delayed(), stats.LocalFallbacks, stats.Suspensions, elapsed.Round(time.Millisecond))
	if !ok {
		out.Detail += "; " + detail
	}
	return out, nil
}

func isLoadError(err error) bool {
	var le *fabric.LoadError
	return errors.As(err, &le)
}

func modeOrDefault(mode string) string {
	if mode == "" {
		return scenario.CorruptBitFlip
	}
	return mode
}

// drillDeadlinePressure squeezes the mesh-cycle budget until runs time out
// (the simulated-time analog of deadline pressure), then restores the full
// budget: timeouts must be flagged, never silently returned as results, and
// the full-budget re-run must complete clean.
func (c *Context) drillDeadlinePressure(f scenario.Fault, res *scenario.Resolved) (scenario.FaultOutcome, error) {
	out := scenario.FaultOutcome{Kind: f.Kind}
	methods := drillMethods(res)
	cfg := res.Configs[0]
	ctx := context.Background()
	squeezed := f.MaxCycles
	if squeezed == 0 {
		squeezed = 500
	}

	timedOut := 0
	tight := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, MaxMeshCycles: squeezed})
	for _, r := range tight.RunBatchCycles(ctx, drillJobs(cfg, methods), squeezed) {
		if r.Err != nil {
			if isLoadError(r.Err) {
				continue
			}
			return out, r.Err
		}
		if r.Run.BP1.TimedOut || r.Run.BP2.TimedOut {
			timedOut++
		}
	}
	out.Injected = timedOut > 0

	full := serve.NewScheduler(serve.SchedulerOptions{Workers: 2, MaxMeshCycles: res.MaxMeshCycles})
	late := 0
	for _, r := range full.RunBatchCycles(ctx, drillJobs(cfg, methods), res.MaxMeshCycles) {
		if r.Err != nil {
			if isLoadError(r.Err) {
				continue
			}
			return out, r.Err
		}
		if r.Run.BP1.TimedOut || r.Run.BP2.TimedOut {
			late++
		}
	}
	out.Recovered = late == 0
	out.Detail = fmt.Sprintf("squeezedCycles=%d timedOut=%d fullBudgetTimedOut=%d",
		squeezed, timedOut, late)
	return out, nil
}
