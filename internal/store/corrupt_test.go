package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"testing"

	"javaflow/internal/scenario/chaosfs"
)

// writeSeedStore populates a fresh store with n run records and returns
// the keys and the path of the segment holding them.
func writeSeedStore(t *testing.T, dir string, n int) ([]RunKey, string) {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	m, cfg := testMethod(t)
	run := runFor(t, cfg, m)
	keys := make([]RunKey, n)
	for i := range keys {
		k := RunKeyFor(cfg, m, 400_000)
		k.Signature = fmt.Sprintf("%s#%d", k.Signature, i)
		keys[i] = k
		st.PutRun(k, run)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return keys, filepath.Join(dir, segmentName(1))
}

func TestStoreRecoversFromTruncatedSegment(t *testing.T) {
	dir := t.TempDir()
	keys, seg := writeSeedStore(t, dir, 3)

	// Tear the final record as a crash mid-append would: keep its header
	// but lose part of its body and the checksum.
	if err := chaosfs.TruncateTail(seg, 10); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after truncation: %v", err)
	}
	defer st.Close()
	for _, k := range keys[:2] {
		if _, ok := st.GetRun(k); !ok {
			t.Fatalf("intact record %s lost after truncation", k.Signature)
		}
	}
	if _, ok := st.GetRun(keys[2]); ok {
		t.Fatal("torn record served")
	}
	stats := st.Stats()
	if stats.Records != 2 || stats.TornBytes == 0 {
		t.Fatalf("stats = %+v, want 2 records and nonzero torn bytes", stats)
	}
}

func TestStoreSkipsChecksumFlippedRecord(t *testing.T) {
	dir := t.TempDir()
	keys, seg := writeSeedStore(t, dir, 3)

	// Flip one bit in the final record's CRC trailer: the frame stays
	// parseable, the checksum fails, and replay must skip exactly that
	// record while keeping the ones before it.
	if err := chaosfs.FlipByte(seg, -1, 0x40); err != nil {
		t.Fatalf("flip CRC byte: %v", err)
	}

	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after bit flip: %v", err)
	}
	defer st.Close()
	for _, k := range keys[:2] {
		if _, ok := st.GetRun(k); !ok {
			t.Fatalf("clean record %s lost after unrelated bit flip", k.Signature)
		}
	}
	if _, ok := st.GetRun(keys[2]); ok {
		t.Fatal("checksum-failed record served")
	}
	stats := st.Stats()
	if stats.Records != 2 || stats.SkippedRecords != 1 || stats.TornBytes != 0 {
		t.Fatalf("stats = %+v, want 2 records / 1 skipped / 0 torn", stats)
	}
}

func TestStoreSkipsFlippedValueByteMidSegment(t *testing.T) {
	dir := t.TempDir()
	keys, seg := writeSeedStore(t, dir, 3)

	// Corrupt a byte inside the FIRST record's value: replay must skip it
	// and still deliver both later records.
	firstKey := keys[0].encode()
	if err := chaosfs.FlipByte(seg, headerSize+len(firstKey)+4, 0xFF); err != nil {
		t.Fatalf("flip value byte: %v", err)
	}

	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after value corruption: %v", err)
	}
	defer st.Close()
	if _, ok := st.GetRun(keys[0]); ok {
		t.Fatal("corrupted record served")
	}
	for _, k := range keys[1:] {
		if _, ok := st.GetRun(k); !ok {
			t.Fatalf("record %s after the corrupted one was lost", k.Signature)
		}
	}
	if stats := st.Stats(); stats.SkippedRecords != 1 || stats.Records != 2 {
		t.Fatalf("stats = %+v, want 1 skipped / 2 records", stats)
	}
}

// TestStoreIngestCrashRecovery kills a node "mid-ingest": the destination
// ingested foreign records and queued its per-peer cursor behind them, but
// the tail of the append — the final data record and the cursor — never
// fully reached disk. Reopening must discard the torn foreign tail AND the
// cursor that would have claimed it (the cursor is appended after the
// data, so a tear can never keep the claim while losing the goods), and a
// re-ingest of the same chunk must restore exactly the lost records.
func TestStoreIngestCrashRecovery(t *testing.T) {
	srcDir := t.TempDir()
	keys, _ := writeSeedStore(t, srcDir, 3)
	src, err := Open(srcDir, Options{})
	if err != nil {
		t.Fatalf("reopen src: %v", err)
	}
	chunk := exportAll(t, src)
	src.Close()

	const cursorName = "replcursor|http://peer-a"
	dstDir := t.TempDir()
	dst, err := Open(dstDir, Options{})
	if err != nil {
		t.Fatalf("open dst: %v", err)
	}
	res, err := dst.Ingest(chunk)
	if err != nil || res.Ingested != 3 {
		t.Fatalf("ingest = %+v, %v; want 3 ingested", res, err)
	}
	// The replicator's cursor write: strictly after the data records.
	dst.PutMeta(cursorName, MarshalCursor(map[int]int64{1: res.Bytes}))
	if err := dst.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Tear the destination segment as a crash mid-append would: the cursor
	// record is last, so cutting back past it also tears the final data
	// record.
	seg := filepath.Join(dstDir, segmentName(1))
	cursorLen := len(appendRecord(nil, record{
		typ: recTypeMeta,
		key: metaKey(cursorName),
		val: MarshalCursor(map[int]int64{1: res.Bytes}),
	}))
	cut := cursorLen + 10 // the whole cursor plus part of the last data record
	if err := chaosfs.TruncateTail(seg, cut); err != nil {
		t.Fatalf("truncate: %v", err)
	}

	dst2, err := Open(dstDir, Options{})
	if err != nil {
		t.Fatalf("reopen after tear: %v", err)
	}
	defer dst2.Close()
	if _, ok := dst2.GetMeta(cursorName); ok {
		t.Fatal("cursor survived a tear that lost the records it claims")
	}
	if _, ok := dst2.GetRun(keys[2]); ok {
		t.Fatal("torn foreign record served")
	}
	for _, k := range keys[:2] {
		if _, ok := dst2.GetRun(k); !ok {
			t.Fatalf("durable foreign record %s lost", k.Signature)
		}
	}

	// The next anti-entropy round re-fetches from the last durable point
	// (here: no cursor, the whole chunk) and dedup absorbs the survivors.
	res, err = dst2.Ingest(chunk)
	if err != nil {
		t.Fatalf("re-ingest: %v", err)
	}
	if res.Ingested != 1 || res.Skipped != 2 {
		t.Fatalf("re-ingest = %+v, want exactly the torn record restored", res)
	}
	for _, k := range keys {
		if _, ok := dst2.GetRun(k); !ok {
			t.Fatalf("record %s missing after recovery round", k.Signature)
		}
	}
}

// TestStoreUndecodableValueIsMiss covers a value that passes the CRC but
// fails the codec (e.g. written by a future layout): it must read as a
// miss, not an error.
func TestStoreUndecodableValueIsMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	m, cfg := testMethod(t)
	k := RunKeyFor(cfg, m, 400_000)
	st.put(recTypeRun, k.encode(), []byte{99, 1, 2, 3}) // bogus codec version
	if _, ok := st.GetRun(k); ok {
		t.Fatal("undecodable value served as a hit")
	}
}

// FuzzScanSegment holds scanSegment to its contract on any bytes, since
// it reads peers' bytes through Store.Ingest as well as the disk: it
// never panics; the frames it delivers, the frames it skips on their CRC
// and the tail it gives up on cover the input exactly, in order; and
// every delivered record re-encodes with appendRecord to the bytes it was
// read from. Seeds in testdata/fuzz: one record of each type, a torn
// tail, and a flipped CRC byte.
func FuzzScanSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		covered, delivered, skipped := 0, 0, 0
		// skipTo walks CRC-skipped frames from covered up to end, which
		// they must reach exactly.
		skipTo := func(end int) {
			for covered < end {
				if end-covered < headerSize {
					t.Fatalf("%d bytes at %d before %d are no frame", end-covered, covered, end)
				}
				h := data[covered:]
				covered += headerSize + int(binary.LittleEndian.Uint32(h[5:9])) +
					int(binary.LittleEndian.Uint32(h[9:13])) + trailerSize
				skipped++
			}
			if covered != end {
				t.Fatalf("skipped frames overrun to %d, past %d", covered, end)
			}
		}
		res := scanSegment(data, func(rec record) {
			// The key aliases data: its capacity places the frame.
			off := cap(data) - cap(rec.key) - headerSize
			skipTo(off)
			frame := appendRecord(nil, rec)
			if off+len(frame) > len(data) || !bytes.Equal(frame, data[off:off+len(frame)]) {
				t.Fatalf("record at %d re-encodes to %x, not the bytes it was read from", off, frame)
			}
			covered += len(frame)
			delivered++
		})
		skipTo(len(data) - int(res.tail))
		if res.records != delivered || res.skipped != skipped {
			t.Fatalf("scan reports %d records and %d skipped, saw %d delivered and %d skipped",
				res.records, res.skipped, delivered, skipped)
		}
	})
}
