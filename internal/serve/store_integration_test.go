package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/sim"
	"javaflow/internal/store"
	"javaflow/internal/workload"
)

// storeSession is one simulated jfserved process life: a fresh scheduler,
// cache and HTTP handler over the given (persistent) store.
type storeSession struct {
	t     *testing.T
	sched *Scheduler
	ts    *httptest.Server
}

func newStoreSession(t *testing.T, st *store.Store, sigs []string) *storeSession {
	t.Helper()
	methods := hostableMethods(t, len(sigs))
	sched := NewScheduler(SchedulerOptions{Workers: 4, Store: st})
	svc := NewService(sched, sim.Configurations(), methods)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return &storeSession{t: t, sched: sched, ts: ts}
}

func (s *storeSession) post(path, body string) []byte {
	s.t.Helper()
	resp, err := http.Post(s.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		s.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		s.t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		s.t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

// TestStoreWarmRestartByteIdentical is the PR's acceptance test: a second
// service process pointed at the same -store-dir must serve previously
// computed (signature, config) pairs from the store — byte-identical to
// the cold run and without re-running the engine.
func TestStoreWarmRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	sigs := make([]string, 3)
	for i, m := range hostableMethods(t, 3) {
		sigs[i] = m.Signature()
	}
	runBody := fmt.Sprintf(`{"config":"Compact2","method":%q}`, sigs[0])
	batchBody := fmt.Sprintf(`{"configs":["Compact4","Compact2"],"methods":[%q,%q,%q]}`,
		sigs[0], sigs[1], sigs[2])

	// --- Cold process life: everything computed by the engine. ---
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	cold := newStoreSession(t, st1, sigs)
	coldRun := cold.post("/v1/run", runBody)
	coldBatch := cold.post("/v1/batch", batchBody)
	coldSnap := cold.sched.Snapshot()
	// 7 jobs total; the batch's (Compact2, sigs[0]) job re-reads the
	// /v1/run result already persisted in this same process life, so the
	// cold pass itself sees exactly one store hit and six misses.
	if coldSnap.Store == nil || coldSnap.Store.RunMisses != 6 || coldSnap.Store.RunHits != 1 {
		t.Fatalf("cold store stats = %+v, want 6 run misses / 1 run hit", coldSnap.Store)
	}
	if coldSnap.Store.Puts == 0 {
		t.Fatalf("cold run persisted nothing: %+v", coldSnap.Store)
	}
	// Deployments stay in the process: the cold sweep stored runs only.
	geoms := st1.Admin().Geometries
	if len(geoms) == 0 {
		t.Fatal("cold run stored nothing per geometry")
	}
	for _, g := range geoms {
		if g.Deploys != 0 || g.Runs == 0 {
			t.Fatalf("after a cold sweep, geometry %+v: want runs and no deployment records", g)
		}
	}
	if err := st1.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// --- Warm process life: same dir, fresh cache and scheduler. ---
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	warm := newStoreSession(t, st2, sigs)
	warmRun := warm.post("/v1/run", runBody)
	warmBatch := warm.post("/v1/batch", batchBody)
	warmSnap := warm.sched.Snapshot()

	if !bytes.Equal(coldRun, warmRun) {
		t.Fatalf("warm /v1/run differs from cold:\ncold %s\nwarm %s", coldRun, warmRun)
	}
	if !bytes.Equal(coldBatch, warmBatch) {
		t.Fatalf("warm /v1/batch differs from cold:\ncold %s\nwarm %s", coldBatch, warmBatch)
	}
	// 1 run + 2 configs x 3 methods = 7 jobs, all answered by the store.
	if warmSnap.Store == nil || warmSnap.Store.RunHits != 7 {
		t.Fatalf("warm store stats = %+v, want 7 run hits", warmSnap.Store)
	}
	// A store run-hit precedes deployment, so the warm process never
	// touched the deploy pipeline at all.
	if warmSnap.Cache.Misses != 0 {
		t.Fatalf("warm run re-deployed: cache stats %+v", warmSnap.Cache)
	}

	// A new mesh-cycle bound is a run miss: the engine must execute, on a
	// deployment this process computes itself — the store holds runs only,
	// so it gains exactly one record, the new run.
	records := st2.Stats().Records
	warm.post("/v1/run", fmt.Sprintf(`{"config":"Compact2","method":%q,"maxMeshCycles":250000}`, sigs[0]))
	snap := warm.sched.Snapshot()
	if snap.Cache.Misses != warmSnap.Cache.Misses+1 {
		t.Fatalf("new cycle bound: cache stats %+v, want exactly one deployment computed", snap.Cache)
	}
	if got := st2.Stats().Records; got != records+1 {
		t.Fatalf("new cycle bound: store went from %d to %d records, want one new run", records, got)
	}
}

// TestParentFormatDirectoryServedWarm: a directory written the way the
// store was filled before deployments left it — a deployment record
// (placement or fabric rejection) beside every run — is served warm and
// byte-identical with no engine run and no deployment; its deployment
// records are replayed into the index but never read; and a peer ingesting
// its segments merges every record, deployments included, as before.
func TestParentFormatDirectoryServedWarm(t *testing.T) {
	methods := hostableMethods(t, 4)
	var rejected *classfile.Method
	for _, m := range workload.NamedMethods() {
		var le *fabric.LoadError
		if _, err := sim.DeployMethod(testConfig(t, "Compact2"), m); errors.As(err, &le) {
			rejected = m
			break
		}
	}
	if rejected == nil {
		t.Fatal("no fabric-rejected method in the named workloads")
	}
	configs := []string{"Baseline", "Compact2", "Hetero2"}

	dir := t.TempDir()
	old, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runner := &sim.Runner{MaxMeshCycles: sim.DefaultMaxMeshCycles}
	deploys, runs := 0, 0
	for _, name := range configs {
		cfg := testConfig(t, name)
		for _, m := range append([]*classfile.Method{rejected}, methods...) {
			res, derr := sim.DeployMethod(cfg, m)
			//lint:ignore SA1019 writing the deployment records older directories hold is the point
			old.PutDeploy(store.DeployKeyFor(cfg, m), res, derr)
			deploys++
			if derr != nil {
				continue
			}
			run, err := runner.RunResolved(cfg, res)
			if err != nil {
				t.Fatal(err)
			}
			old.PutRun(store.RunKeyFor(cfg, m, sim.DefaultMaxMeshCycles), run)
			runs++
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	cold := newStoreSession(t, nil, make([]string, len(methods)))
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	warm := newStoreSession(t, st, make([]string, len(methods)))
	var want [][]byte
	for _, name := range configs {
		for _, m := range methods {
			body := fmt.Sprintf(`{"config":%q,"method":%q}`, name, m.Signature())
			want = append(want, cold.post("/v1/run", body))
		}
	}
	before := sim.TotalEngineStats()
	i := 0
	for _, name := range configs {
		for _, m := range methods {
			got := warm.post("/v1/run", fmt.Sprintf(`{"config":%q,"method":%q}`, name, m.Signature()))
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("%s on %s: warm body differs from cold:\ncold %s\nwarm %s", m.Signature(), name, want[i], got)
			}
			i++
		}
	}
	if after := sim.TotalEngineStats(); after.Runs != before.Runs || after.PolicyRunsShared != before.PolicyRunsShared {
		t.Fatalf("warm serve ran the engine: %+v -> %+v", before, after)
	}
	snap := warm.sched.Snapshot()
	if snap.Store.RunHits != int64(runs) || snap.Cache.Misses != 0 {
		t.Fatalf("store %+v, cache %+v: want %d run hits and no deployment", snap.Store, snap.Cache, runs)
	}
	// A new cycle bound on a stored geometry needs a deployment: it is
	// computed, not read back from the deployment record beside the run.
	warm.post("/v1/run", fmt.Sprintf(`{"config":"Compact2","method":%q,"maxMeshCycles":250000}`, methods[0].Signature()))
	snap = warm.sched.Snapshot()
	if snap.Cache.Misses != 1 || snap.Store.DeployHits != 0 || snap.Store.DeployMisses != 0 {
		t.Fatalf("cache %+v, store %+v: want one computed deployment and no deployment record read", snap.Cache, snap.Store)
	}
	replayed := 0
	for _, g := range st.Admin().Geometries {
		replayed += g.Deploys
	}
	if replayed != deploys {
		t.Fatalf("%d deployment records replayed into the index, want %d", replayed, deploys)
	}

	peer, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := st.Flush(); err != nil { // the new run is written behind
		t.Fatal(err)
	}
	segments, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	ingested := 0
	for _, seg := range segments {
		data, _, err := st.ReadSegmentAt(seg.Seq, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := peer.Ingest(data)
		if err != nil {
			t.Fatal(err)
		}
		ingested += res.Ingested
	}
	// Every record the directory holds: the old deployments and runs, and
	// the one run the new cycle bound added.
	if want := deploys + runs + 1; ingested != want {
		t.Fatalf("ingest merged %d records, want %d (%d deployments + %d runs + 1)", ingested, want, deploys, runs)
	}
}
