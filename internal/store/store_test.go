package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"javaflow/internal/classfile"
	"javaflow/internal/fabric"
	"javaflow/internal/sim"
	"javaflow/internal/workload"
)

// testMethod returns a named corpus method the compact fabric hosts.
func testMethod(t testing.TB) (*classfile.Method, sim.Config) {
	t.Helper()
	var cfg sim.Config
	for _, c := range sim.Configurations() {
		if c.Name == "Compact2" {
			cfg = c
		}
	}
	for _, m := range workload.NamedMethods() {
		if _, err := sim.DeployMethod(cfg, m); err == nil {
			return m, cfg
		}
	}
	t.Fatal("no hostable method in the named corpus")
	return nil, sim.Config{}
}

func runFor(t testing.TB, cfg sim.Config, m *classfile.Method) sim.MethodRun {
	t.Helper()
	r := &sim.Runner{MaxMeshCycles: 400_000}
	run, err := r.RunMethod(cfg, m)
	if err != nil {
		t.Fatalf("run %s: %v", m.Signature(), err)
	}
	return run
}

func TestStoreRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m, cfg := testMethod(t)
	key := RunKeyFor(cfg, m, 400_000)

	if _, ok := st.GetRun(key); ok {
		t.Fatal("empty store reported a hit")
	}
	want := runFor(t, cfg, m)
	st.PutRun(key, want)

	got, ok := st.GetRun(key)
	if !ok {
		t.Fatal("put then get missed")
	}
	if got != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The record must survive a process restart.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	got, ok = st2.GetRun(key)
	if !ok {
		t.Fatal("record lost across reopen")
	}
	if got != want {
		t.Fatalf("reopened record mismatch:\n got %+v\nwant %+v", got, want)
	}
	stats := st2.Stats()
	if stats.Records != 1 || stats.RunHits != 1 || stats.SkippedRecords != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestStoreRunKeyDiscriminates(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	m, cfg := testMethod(t)
	st.PutRun(RunKeyFor(cfg, m, 400_000), runFor(t, cfg, m))

	// A different mesh-cycle bound, clocking rule, or method body is a
	// different result.
	if _, ok := st.GetRun(RunKeyFor(cfg, m, 200_000)); ok {
		t.Fatal("different MaxMeshCycles hit the same record")
	}
	cfg2 := cfg
	cfg2.SerialPerMesh = 4
	if _, ok := st.GetRun(RunKeyFor(cfg2, m, 400_000)); ok {
		t.Fatal("different SerialPerMesh hit the same record")
	}
	k := RunKeyFor(cfg, m, 400_000)
	k.MethodHash++
	if _, ok := st.GetRun(k); ok {
		t.Fatal("different method body hit the same record")
	}

	// A renamed configuration with identical geometry and clocking shares
	// the record — keys are content-based, not name-based.
	cfg3 := cfg
	cfg3.Name = "Compact2-renamed"
	if _, ok := st.GetRun(RunKeyFor(cfg3, m, 400_000)); !ok {
		t.Fatal("identical geometry+clocking under a new name missed")
	}
}

func TestStoreDeployRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m, cfg := testMethod(t)
	key := DeployKeyFor(cfg, m)

	want, err := sim.DeployMethod(cfg, m)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	st.PutDeploy(key, want, nil)

	// Also persist a rejection under a synthetic key.
	failKey := key
	failKey.Signature = "rejected/method/sig/0"
	st.PutDeploy(failKey, nil, &fabric.LoadError{Method: "rejected", Reason: "tableswitch"})
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()

	got, ok, derr := st2.GetDeploy(key, cfg.Fabric, m)
	if !ok || derr != nil {
		t.Fatalf("deploy get: ok=%v err=%v", ok, derr)
	}
	if got.Placement.Method != m || got.Placement.Fabric != cfg.Fabric {
		t.Fatal("reconstructed placement not rebound to live method/fabric")
	}
	if got.NumTargets() != want.NumTargets() ||
		fmt.Sprint(got.Placement.NodeOf) != fmt.Sprint(want.Placement.NodeOf) ||
		fmt.Sprint(got.QUp) != fmt.Sprint(want.QUp) ||
		got.MaxQUp != want.MaxQUp || got.Cycles != want.Cycles || got.Merges != want.Merges {
		t.Fatalf("reconstructed resolution differs:\n got %+v\nwant %+v", got, want)
	}
	for i := range m.Code {
		if fmt.Sprint(got.TargetsOf(i)) != fmt.Sprint(want.TargetsOf(i)) {
			t.Fatalf("instruction %d: reconstructed targets %v, want %v", i, got.TargetsOf(i), want.TargetsOf(i))
		}
	}

	_, ok, derr = st2.GetDeploy(failKey, cfg.Fabric, m)
	if !ok || derr == nil {
		t.Fatalf("persisted rejection not served: ok=%v err=%v", ok, derr)
	}
	if le, isLE := derr.(*fabric.LoadError); !isLE || le.Reason != "tableswitch" {
		t.Fatalf("rejection came back as %T %v", derr, derr)
	}
}

func TestStoreLastWriteWinsAndCompact(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m, cfg := testMethod(t)
	key := RunKeyFor(cfg, m, 400_000)

	stale := runFor(t, cfg, m)
	stale.BP1.Fired = 1 // distinguishable stale value
	st.PutRun(key, stale)
	fresh := runFor(t, cfg, m)
	st.PutRun(key, fresh)
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, ok := st2.GetRun(key)
	if !ok || got != fresh {
		t.Fatalf("replay kept the stale record: ok=%v got=%+v", ok, got)
	}

	// Compaction folds duplicates into one live record and survives the
	// next reopen.
	if err := st2.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if got, ok := st2.GetRun(key); !ok || got != fresh {
		t.Fatalf("post-compact read: ok=%v got=%+v", ok, got)
	}
	st2.Close()

	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer st3.Close()
	if got, ok := st3.GetRun(key); !ok || got != fresh {
		t.Fatalf("compacted store lost the record: ok=%v got=%+v", ok, got)
	}
	if stats := st3.Stats(); stats.Records != 1 {
		t.Fatalf("compacted store has %d records, want 1", stats.Records)
	}
}

func TestStoreSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m, cfg := testMethod(t)
	run := runFor(t, cfg, m)
	for i := 0; i < 16; i++ {
		k := RunKeyFor(cfg, m, 400_000)
		k.Signature = fmt.Sprintf("%s#%d", k.Signature, i)
		st.PutRun(k, run)
	}
	st.Close()

	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(seqs) < 2 {
		t.Fatalf("tiny segment bound produced %d segments, want >=2", len(seqs))
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if st2.Len() != 16 {
		t.Fatalf("rotated store replayed %d records, want 16", st2.Len())
	}
}

func TestStoreConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m, cfg := testMethod(t)
	run := runFor(t, cfg, m)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := RunKeyFor(cfg, m, 400_000)
				k.Signature = fmt.Sprintf("g%d/i%d", g, i)
				st.PutRun(k, run)
				if _, ok := st.GetRun(k); !ok {
					t.Errorf("read-your-write missed for %s", k.Signature)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if st2.Len() != 400 {
		t.Fatalf("replayed %d records, want 400", st2.Len())
	}
}

// TestStoreCompactSparesForeignSegments: in a shared directory, Compact
// must only delete segments this store replayed or wrote — a segment
// another process created after our Open survives, and its records are
// visible to the next Open.
func TestStoreCompactSparesForeignSegments(t *testing.T) {
	dir := t.TempDir()
	keys, _ := writeSeedStore(t, dir, 2)
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// Simulate a concurrent process appending its own segment.
	m, cfg := testMethod(t)
	fk := RunKeyFor(cfg, m, 400_000)
	fk.Signature = "foreign-writer"
	val, _ := runFor(t, cfg, m).MarshalBinary()
	foreign := filepath.Join(dir, segmentName(50))
	if err := os.WriteFile(foreign, appendRecord(nil, record{typ: recTypeRun, key: fk.encode(), val: val}), 0o644); err != nil {
		t.Fatalf("write foreign segment: %v", err)
	}

	if err := st.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("compact deleted a foreign segment: %v", err)
	}
	for _, k := range keys {
		if _, ok := st.GetRun(k); !ok {
			t.Fatalf("compact lost own record %s", k.Signature)
		}
	}
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if _, ok := st2.GetRun(fk); !ok {
		t.Fatal("foreign record not replayed after compact + reopen")
	}
	for _, k := range keys {
		if _, ok := st2.GetRun(k); !ok {
			t.Fatalf("compacted record %s not replayed", k.Signature)
		}
	}
}

// TestStoreWarmOnlyLifeLeavesNoEmptySegment: process lives that only read
// must not accrete one empty segment file per restart.
func TestStoreWarmOnlyLifeLeavesNoEmptySegment(t *testing.T) {
	dir := t.TempDir()
	keys, _ := writeSeedStore(t, dir, 1)

	for i := 0; i < 5; i++ {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("warm open %d: %v", i, err)
		}
		if _, ok := st.GetRun(keys[0]); !ok {
			t.Fatalf("warm open %d missed the seed record", i)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("warm close %d: %v", i, err)
		}
	}
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(seqs) != 1 {
		t.Fatalf("5 read-only lives left %d segments, want 1", len(seqs))
	}
}

// TestStoreOpenActiveSkipsClaimedSegments: two processes opening the same
// directory race for the next sequence number; the loser must slide past
// the O_EXCL-claimed file instead of failing at boot.
func TestStoreOpenActiveSkipsClaimedSegments(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []int{1, 2} {
		if err := os.WriteFile(filepath.Join(dir, segmentName(seq)), nil, 0o644); err != nil {
			t.Fatalf("claim seg %d: %v", seq, err)
		}
	}
	s := &Store{dir: dir, activeSeq: 1}
	if err := s.openActive(); err != nil {
		t.Fatalf("openActive with claimed segments: %v", err)
	}
	defer s.active.Close()
	if s.activeSeq != 3 {
		t.Fatalf("activeSeq = %d, want 3 (slid past two claimed segments)", s.activeSeq)
	}
}

// TestStoreSharedDirTwoLiveProcesses models jfserved + jfbench pointing at
// one -store-dir concurrently: both must open, write to disjoint segments,
// and a later process must see both writers' records.
func TestStoreSharedDirTwoLiveProcesses(t *testing.T) {
	dir := t.TempDir()
	m, cfg := testMethod(t)
	run := runFor(t, cfg, m)

	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open a: %v", err)
	}
	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open b while a is live: %v", err)
	}
	ka := RunKeyFor(cfg, m, 400_000)
	ka.Signature = "writer-a"
	kb := RunKeyFor(cfg, m, 400_000)
	kb.Signature = "writer-b"
	a.PutRun(ka, run)
	b.PutRun(kb, run)
	if err := a.Close(); err != nil {
		t.Fatalf("close a: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("close b: %v", err)
	}

	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c.Close()
	for _, k := range []RunKey{ka, kb} {
		if _, ok := c.GetRun(k); !ok {
			t.Fatalf("record from %s lost", k.Signature)
		}
	}
}

// TestStoreOpenSweepsOrphanedCompactTemps: a crash between Compact's
// CreateTemp and its rename must not leak temp files forever.
func TestStoreOpenSweepsOrphanedCompactTemps(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, "compact-123456.tmp")
	if err := os.WriteFile(orphan, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatalf("plant orphan: %v", err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphaned compact temp survived Open: %v", err)
	}
}

// TestStoreOpenOnEmptyAndMissingDir covers first-boot paths.
func TestStoreOpenOnEmptyAndMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "store")
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open on missing dir: %v", err)
	}
	if st.Len() != 0 {
		t.Fatalf("fresh store has %d records", st.Len())
	}
	st.Close()
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("store dir not created: %v", err)
	}
}
