package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"javaflow/internal/fabric"
	"javaflow/internal/scenario/chaosfs"
	"javaflow/internal/sim"
)

func adminRunKey(sig, geom string, h uint64) RunKey {
	return RunKey{
		DeployKey:     DeployKey{Signature: sig, MethodHash: h, Geometry: geom},
		SerialPerMesh: 2,
		MaxMeshCycles: 1000,
	}
}

func TestAdminReport(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	run := sim.MethodRun{Signature: "a/B.c/1", BP1: sim.Result{Fired: 3}, BP2: sim.Result{Fired: 4}}
	st.PutRun(adminRunKey("a/B.c/1", "w10:UB", 1), run)
	st.PutRun(adminRunKey("a/B.c/2", "w10:UB", 2), run)
	st.PutRun(adminRunKey("a/B.c/3", "w4:U", 3), run)
	st.PutDeploy(DeployKey{Signature: "a/B.c/4", MethodHash: 4, Geometry: "w4:U"},
		nil, &fabric.LoadError{Method: "a/B.c/4", Reason: "switch"})
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	rep := st.Admin()
	if rep.Records != 4 {
		t.Fatalf("records = %d, want 4", rep.Records)
	}
	if rep.Segments == 0 || rep.DiskBytes == 0 || rep.LiveBytes == 0 {
		t.Fatalf("empty footprint: %+v", rep)
	}
	if len(rep.Geometries) != 2 {
		t.Fatalf("geometries = %+v, want 2 entries", rep.Geometries)
	}
	// Sorted by geometry key: "w10:UB" < "w4:U".
	if g := rep.Geometries[0]; g.Geometry != "w10:UB" || g.Runs != 2 || g.Deploys != 0 {
		t.Fatalf("w10:UB breakdown = %+v", g)
	}
	if g := rep.Geometries[1]; g.Geometry != "w4:U" || g.Runs != 1 || g.Deploys != 1 {
		t.Fatalf("w4:U breakdown = %+v", g)
	}
	if rep.GarbageRatio > 0.01 {
		t.Fatalf("fresh store reports %.2f garbage", rep.GarbageRatio)
	}
}

func TestAdminGarbageRatioAndCompact(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	run := sim.MethodRun{Signature: "a/B.c/1", BP1: sim.Result{Fired: 1}}
	key := adminRunKey("a/B.c/1", "w10:UB", 1)
	// The same key rewritten many times: all but the last record are
	// garbage on disk.
	for i := 0; i < 50; i++ {
		st.PutRun(key, run)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	rep := st.Admin()
	if rep.Records != 1 {
		t.Fatalf("records = %d, want 1 live", rep.Records)
	}
	if rep.GarbageRatio < 0.9 {
		t.Fatalf("garbage ratio %.2f after 49 superseded rewrites, want > 0.9", rep.GarbageRatio)
	}

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	rep = st.Admin()
	if rep.GarbageRatio > 0.01 {
		t.Fatalf("garbage ratio %.2f after compaction", rep.GarbageRatio)
	}
	if rep.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", rep.Compactions)
	}
	if rep.Records != 1 {
		t.Fatalf("compaction lost records: %+v", rep)
	}
}

// TestGarbageRatioCounterMatchesWalk checks the live-bytes count behind
// GarbageRatio against Admin's walk of the index, after every kind of
// index change: puts, overwrites, meta records, an Ingest, a reopen that
// replays a torn tail, and a Compact.
func TestGarbageRatioCounterMatchesWalk(t *testing.T) {
	dir := t.TempDir()
	check := func(st *Store, when string) {
		t.Helper()
		if err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		st.mu.Lock()
		live := st.liveBytes
		st.mu.Unlock()
		rep := st.Admin()
		if live != rep.LiveBytes {
			t.Fatalf("%s: counted %d live bytes, the walk finds %d", when, live, rep.LiveBytes)
		}
		if got := st.GarbageRatio(); got != rep.GarbageRatio {
			t.Fatalf("%s: GarbageRatio() = %v, Admin().GarbageRatio = %v", when, got, rep.GarbageRatio)
		}
	}

	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check(st, "empty")
	for i := range 20 {
		run := sim.MethodRun{Signature: fmt.Sprintf("a/B.c/%d", i), BP1: sim.Result{Fired: i}}
		st.PutRun(adminRunKey(run.Signature, "w10:UB", uint64(i)), run)
	}
	check(st, "puts")
	for i := range 10 { // overwrites with values of another length
		run := sim.MethodRun{Signature: fmt.Sprintf("a/B.c/%d", i), BP1: sim.Result{Fired: 1 << 40}, BP2: sim.Result{Fired: 7}}
		st.PutRun(adminRunKey(run.Signature, "w10:UB", uint64(i)), run)
	}
	st.PutMeta("replcursor|http://peer:1", []byte(`{"1":10}`))
	st.PutMeta("replcursor|http://peer:1", []byte(`{"1":1000,"2":5}`))
	check(st, "overwrites")

	src, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 15; i < 30; i++ { // five keys overlap, ten are new
		run := sim.MethodRun{Signature: fmt.Sprintf("a/B.c/%d", i), BP2: sim.Result{Fired: i}}
		src.PutRun(adminRunKey(run.Signature, "w4:U", uint64(i)), run)
	}
	if err := src.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ingest(exportAll(t, src)); err != nil {
		t.Fatal(err)
	}
	src.Close()
	check(st, "ingest")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the newest segment's last record, as a crash mid-append would.
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, seq := range seqs {
		if fi, err := os.Stat(filepath.Join(dir, segmentName(seq))); err == nil && fi.Size() > 0 {
			last = filepath.Join(dir, segmentName(seq))
		}
	}
	if err := chaosfs.TruncateTail(last, 10); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Stats().TornBytes == 0 {
		t.Fatal("reopen replayed no torn tail")
	}
	check(st, "torn-tail reopen")
	if st.GarbageRatio() == 0 {
		t.Fatal("overwrites and a torn tail left no garbage")
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	check(st, "compact")
}
