package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"
)

// exportAll reads every manifest segment of src in full — the byte stream
// a peer's replicator would pull on a cold sync.
func exportAll(t *testing.T, src *Store) []byte {
	t.Helper()
	manifest, err := src.Manifest()
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	var out []byte
	for _, seg := range manifest {
		data, _, err := src.ReadSegmentAt(seg.Seq, 0)
		if err != nil {
			t.Fatalf("read segment %d: %v", seg.Seq, err)
		}
		if int64(len(data)) < seg.Size {
			t.Fatalf("segment %d: read %d bytes, manifest says %d", seg.Seq, len(data), seg.Size)
		}
		out = append(out, data[:seg.Size]...)
	}
	return out
}

func TestStoreIngestMergesAndDedups(t *testing.T) {
	src, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open src: %v", err)
	}
	defer src.Close()
	m, cfg := testMethod(t)
	run := runFor(t, cfg, m)
	keys := make([]RunKey, 3)
	for i := range keys {
		k := RunKeyFor(cfg, m, 400_000)
		k.Signature = fmt.Sprintf("%s#%d", k.Signature, i)
		keys[i] = k
		src.PutRun(k, run)
	}
	if err := src.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	chunk := exportAll(t, src)

	dst, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open dst: %v", err)
	}
	defer dst.Close()
	res, err := dst.Ingest(chunk)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if res.Ingested != 3 || res.Skipped != 0 || res.Bytes != int64(len(chunk)) || res.TornBytes != 0 {
		t.Fatalf("ingest result = %+v, want 3 ingested / full chunk consumed", res)
	}

	// Every pulled record must be byte-identical to the source's copy.
	want, err := run.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, k := range keys {
		got, ok := dst.GetRun(k)
		if !ok {
			t.Fatalf("ingested key %s missing", k.Signature)
		}
		gotBytes, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if !bytes.Equal(gotBytes, want) {
			t.Fatalf("ingested run for %s not byte-identical", k.Signature)
		}
	}

	// Re-ingesting the same chunk is a pure dedup: content keys are
	// already live, nothing is appended.
	res, err = dst.Ingest(chunk)
	if err != nil {
		t.Fatalf("re-ingest: %v", err)
	}
	if res.Ingested != 0 || res.Skipped != 3 {
		t.Fatalf("re-ingest result = %+v, want 0 ingested / 3 skipped", res)
	}
	stats := dst.Stats()
	if stats.IngestedRecords != 3 || stats.IngestSkipped != 3 {
		t.Fatalf("stats = %+v, want 3 ingested / 3 skipped", stats)
	}
}

// TestStoreIngestIsDurable proves ingested records flow through the same
// crash-safe append path as local puts: a fresh Open replays them.
func TestStoreIngestIsDurable(t *testing.T) {
	srcDir := t.TempDir()
	keys, _ := writeSeedStore(t, srcDir, 2)
	src, err := Open(srcDir, Options{})
	if err != nil {
		t.Fatalf("reopen src: %v", err)
	}
	chunk := exportAll(t, src)
	src.Close()

	dstDir := t.TempDir()
	dst, err := Open(dstDir, Options{})
	if err != nil {
		t.Fatalf("open dst: %v", err)
	}
	if _, err := dst.Ingest(chunk); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if err := dst.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	dst2, err := Open(dstDir, Options{})
	if err != nil {
		t.Fatalf("reopen dst: %v", err)
	}
	defer dst2.Close()
	for _, k := range keys {
		if _, ok := dst2.GetRun(k); !ok {
			t.Fatalf("ingested key %s did not survive a restart", k.Signature)
		}
	}
}

func TestStoreIngestSkipsMetaRecords(t *testing.T) {
	src, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open src: %v", err)
	}
	defer src.Close()
	m, cfg := testMethod(t)
	k := RunKeyFor(cfg, m, 400_000)
	src.PutRun(k, runFor(t, cfg, m))
	src.PutMeta("replcursor|http://peer-a", []byte(`{"segments":{"1":100}}`))
	if err := src.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	chunk := exportAll(t, src)

	dst, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open dst: %v", err)
	}
	defer dst.Close()
	res, err := dst.Ingest(chunk)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if res.Ingested != 1 || res.SkippedMeta != 1 {
		t.Fatalf("ingest result = %+v, want 1 ingested / 1 meta skipped", res)
	}
	if _, ok := dst.GetMeta("replcursor|http://peer-a"); ok {
		t.Fatal("a foreign replication cursor crossed nodes")
	}
	if _, ok := dst.GetRun(k); !ok {
		t.Fatal("payload record did not cross")
	}
	rep := dst.Admin()
	if rep.MetaRecords != 0 || rep.Records != 1 {
		t.Fatalf("admin = %+v, want 1 record / 0 meta", rep)
	}
}

// TestStoreManifestCoversActiveSegment: records still in the active
// (unsealed) segment replicate too — a peer does not have to wait for a
// rotation or restart.
func TestStoreManifestCoversActiveSegment(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	m, cfg := testMethod(t)
	st.PutRun(RunKeyFor(cfg, m, 400_000), runFor(t, cfg, m))
	if err := st.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	manifest, err := st.Manifest()
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if len(manifest) != 1 || manifest[0].Size == 0 {
		t.Fatalf("manifest = %+v, want the active segment with bytes", manifest)
	}
	data, visible, err := st.ReadSegmentAt(manifest[0].Seq, 0)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if int64(len(data)) != manifest[0].Size || visible != manifest[0].Size {
		t.Fatalf("read %d bytes (visible %d), manifest says %d", len(data), visible, manifest[0].Size)
	}
	// Reading at the end returns empty, not an error (the puller's "caught
	// up" probe).
	tail, _, err := st.ReadSegmentAt(manifest[0].Seq, manifest[0].Size)
	if err != nil || len(tail) != 0 {
		t.Fatalf("read at end = %d bytes, %v; want empty, nil", len(tail), err)
	}
}

// TestStoreManifestExcludesTornTail: a sealed segment's torn tail is not
// offered to pullers, so a cursor that reaches Size is genuinely done.
func TestStoreManifestExcludesTornTail(t *testing.T) {
	dir := t.TempDir()
	_, seg := writeSeedStore(t, dir, 3)
	data, err := readSegmentPrefix(seg, -1)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if err := os.WriteFile(seg, data[:len(data)-10], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	manifest, err := st.Manifest()
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if len(manifest) != 1 {
		t.Fatalf("manifest = %+v, want one segment", manifest)
	}
	res := scanSegment(data[:len(data)-10], func(record) {})
	want := int64(len(data)-10) - res.tail
	if manifest[0].Size != want {
		t.Fatalf("manifest size %d, want torn tail excluded (%d)", manifest[0].Size, want)
	}
}

func TestStoreCompactIngestMutuallyExclusive(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()

	unlock, err := st.lockMaint("compact")
	if err != nil {
		t.Fatalf("lockMaint: %v", err)
	}
	_, err = st.Ingest(nil)
	var busy *MaintenanceBusyError
	if !errors.As(err, &busy) {
		t.Fatalf("Ingest during compact = %v, want *MaintenanceBusyError", err)
	}
	if busy.Op != "ingest" || busy.Holder != "compact" {
		t.Fatalf("busy = %+v, want ingest refused by compact", busy)
	}
	unlock()

	unlock, err = st.lockMaint("ingest")
	if err != nil {
		t.Fatalf("lockMaint: %v", err)
	}
	err = st.Compact()
	if !errors.As(err, &busy) {
		t.Fatalf("Compact during ingest = %v, want *MaintenanceBusyError", err)
	}
	if busy.Op != "compact" || busy.Holder != "ingest" {
		t.Fatalf("busy = %+v, want compact refused by ingest", busy)
	}
	unlock()

	// Both work once the lock is free.
	if _, err := st.Ingest(nil); err != nil {
		t.Fatalf("ingest after unlock: %v", err)
	}
	if err := st.Compact(); err != nil {
		t.Fatalf("compact after unlock: %v", err)
	}
}

func TestCursorCodecRoundTrip(t *testing.T) {
	in := map[int]int64{1: 100, 7: 8_388_608}
	out := UnmarshalCursor(MarshalCursor(in))
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("cursor round trip = %v, want %v", out, in)
	}
	if got := UnmarshalCursor([]byte("not json")); len(got) != 0 {
		t.Fatalf("damaged cursor = %v, want empty", got)
	}
}

// FuzzUnmarshalCursor: decoding a stored cursor never panics; every pair
// it returns sits in the input under its canonical decimal key with a
// non-negative offset, whatever order the decoder meets the keys in; and
// what it returns round-trips through MarshalCursor. Seeds in
// testdata/fuzz: keys that alias segment 1, a negative offset, a "+2"
// key, null and truncated JSON.
func FuzzUnmarshalCursor(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var in cursorValue
		_ = json.Unmarshal(data, &in) // a decode error leaves in empty, as it must leave the cursor
		var out map[int]int64
		// Map order varies per decode, and an alias shows only in some
		// orders.
		for range 8 {
			out = UnmarshalCursor(data)
			for seq, off := range out {
				if want, ok := in.Segments[strconv.Itoa(seq)]; !ok || off != want || seq < 1 || off < 0 {
					t.Fatalf("decoded %d:%d from %q, which holds %d under %q (present %v)",
						seq, off, data, want, strconv.Itoa(seq), ok)
				}
			}
		}
		if again := UnmarshalCursor(MarshalCursor(out)); !reflect.DeepEqual(again, out) {
			t.Fatalf("cursor %v round-trips to %v", out, again)
		}
	})
}
