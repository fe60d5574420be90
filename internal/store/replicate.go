package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
)

// This file is the store's replication surface: exporting the segment log
// to peers (Manifest, ReadSegmentAt), merging foreign segments back in
// (Ingest), and the node-local meta records replication bookkeeping lives
// in (GetMeta/PutMeta). internal/replicate drives it over HTTP; the store
// itself never talks to the network.

// SegmentInfo describes one replicable segment: its sequence number, the
// length of its replayable prefix (whole, frame-aligned records — a torn
// tail or a partially appended frame is excluded), and a CRC32-C over
// exactly those bytes. Peers compare Size against their per-segment cursor
// to decide what still needs fetching.
type SegmentInfo struct {
	Seq    int    `json:"seq"`
	Size   int64  `json:"size"`
	CRC32C uint32 `json:"crc32c"`
}

// MaintenanceBusyError reports that Compact or Ingest was refused because
// the other maintenance operation currently holds the store's maintenance
// lock. Both rewrite segment state; interleaving them would let a compact
// snapshot race the foreign records an ingest is still appending. Callers
// retry on the next round instead.
type MaintenanceBusyError struct {
	Op     string // the operation that was refused: "compact" or "ingest"
	Holder string // the operation holding the lock
}

func (e *MaintenanceBusyError) Error() string {
	return fmt.Sprintf("store: %s refused: %s in progress", e.Op, e.Holder)
}

// maintHolder reads which maintenance operation holds maintMu (best-effort:
// the holder is stored right after acquisition).
func (s *Store) maintHolder() string {
	if h, ok := s.maintOp.Load().(string); ok && h != "" {
		return h
	}
	return "maintenance"
}

// lockMaint claims the maintenance lock for op, or returns the typed busy
// error naming the current holder.
func (s *Store) lockMaint(op string) (unlock func(), err error) {
	if !s.maintMu.TryLock() {
		return nil, &MaintenanceBusyError{Op: op, Holder: s.maintHolder()}
	}
	s.maintOp.Store(op)
	return func() {
		s.maintOp.Store("")
		s.maintMu.Unlock()
	}, nil
}

// readSegmentPrefix reads the first limit bytes of path (limit < 0 reads
// the whole file).
func readSegmentPrefix(path string, limit int64) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if limit >= 0 && int64(len(data)) > limit {
		data = data[:limit]
	}
	return data, nil
}

// manifestEntry caches one sealed segment's manifest line. Sealed
// segments are immutable (seqs are never reused; compaction deletes files
// rather than rewriting them), so their replayable prefix and CRC are
// computed once and reused across polls; fileSize guards the entry in
// case the segment was still active when first scanned and grew since.
type manifestEntry struct {
	fileSize int64
	info     SegmentInfo
}

// Manifest lists the store's segments for replication, each reported at
// its current replayable prefix. The active segment is included up to the
// bytes already handed to the OS (appends are whole frames under fmu, so
// the prefix is always frame-aligned); a sealed segment's torn tail is
// excluded, so a puller that reaches Size has everything the segment will
// ever yield. Segments another process compacted away between the listing
// and the read are skipped. Sealed segments are scanned once and served
// from a cache afterwards, so a fleet polling an idle converged store
// costs stat calls, not full-log reads.
func (s *Store) Manifest() ([]SegmentInfo, error) {
	s.fmu.Lock()
	activeSeq, activeSize := s.activeSeq, s.activeSize
	s.fmu.Unlock()

	seqs, err := listSegments(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	out := make([]SegmentInfo, 0, len(seqs))
	live := make(map[int]bool, len(seqs))
	for _, seq := range seqs {
		live[seq] = true
		limit := int64(-1)
		sealed := seq != activeSeq
		if !sealed {
			if activeSize == 0 {
				continue
			}
			limit = activeSize
		}
		path := filepath.Join(s.dir, segmentName(seq))
		if sealed {
			fi, err := os.Stat(path)
			if err != nil {
				if os.IsNotExist(err) {
					continue
				}
				return nil, fmt.Errorf("store: manifest: %w", err)
			}
			s.manMu.Lock()
			e, ok := s.manCache[seq]
			s.manMu.Unlock()
			if ok && e.fileSize == fi.Size() {
				if e.info.Size > 0 {
					out = append(out, e.info)
				}
				continue
			}
		}
		data, err := readSegmentPrefix(path, limit)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, fmt.Errorf("store: manifest: %w", err)
		}
		fileSize := int64(len(data))
		// Trim to the replayable prefix: everything up to (not including)
		// the first torn or unparseable frame. CRC-failed frames inside the
		// prefix stay — they are consumed (and skipped) identically by
		// replay and by a peer's Ingest.
		res := scanSegment(data, func(record) {})
		data = data[:int64(len(data))-res.tail]
		info := SegmentInfo{
			Seq:    seq,
			Size:   int64(len(data)),
			CRC32C: crc32.Checksum(data, castagnoli),
		}
		if sealed {
			s.manMu.Lock()
			if s.manCache == nil {
				s.manCache = make(map[int]manifestEntry)
			}
			s.manCache[seq] = manifestEntry{fileSize: fileSize, info: info}
			s.manMu.Unlock()
		}
		if info.Size == 0 {
			continue
		}
		out = append(out, info)
	}
	// Drop cache entries for segments compaction removed.
	s.manMu.Lock()
	for seq := range s.manCache {
		if !live[seq] {
			delete(s.manCache, seq)
		}
	}
	s.manMu.Unlock()
	return out, nil
}

// ReadSegmentAt returns the bytes of segment seq from offset from up to the
// currently visible end (for the active segment, the bytes fully appended
// so far). from past the visible end returns empty data, not an error; an
// unknown segment returns an error satisfying os.IsNotExist. Offsets are
// only meaningful at frame boundaries — pullers advance their cursor by
// the frame-aligned byte count Ingest reports, so that holds by
// construction.
func (s *Store) ReadSegmentAt(seq int, from int64) (data []byte, visible int64, err error) {
	if from < 0 {
		return nil, 0, fmt.Errorf("store: negative segment offset %d", from)
	}
	s.fmu.Lock()
	activeSeq, activeSize := s.activeSeq, s.activeSize
	s.fmu.Unlock()

	f, err := os.Open(filepath.Join(s.dir, segmentName(seq)))
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	visible = fi.Size()
	if seq == activeSeq && activeSize < visible {
		visible = activeSize
	}
	if from >= visible {
		return nil, visible, nil
	}
	buf := make([]byte, visible-from)
	if _, err := f.ReadAt(buf, from); err != nil {
		return nil, 0, fmt.Errorf("store: reading segment %d: %w", seq, err)
	}
	return buf, visible, nil
}

// IngestResult reports what one Ingest call did with a chunk of foreign
// segment bytes.
type IngestResult struct {
	// Ingested counts records merged into this store (key was absent).
	Ingested int
	// Skipped counts records whose key was already live here — the
	// byte-exact dedup content keys make safe (both copies encode the same
	// pure function of the key, so keeping ours is not conflict
	// resolution).
	Skipped int
	// SkippedMeta counts meta records (the source's own replication
	// cursors), which are node-local and never cross nodes.
	SkippedMeta int
	// CRCSkipped counts frames whose checksum failed; they are consumed
	// (replay on the source would skip them identically) but not merged.
	CRCSkipped int
	// Bytes is the frame-aligned byte count consumed from the chunk — what
	// the caller advances its per-peer cursor by. Torn trailing bytes are
	// not consumed and will be re-fetched.
	Bytes int64
	// TornBytes is the unusable tail of the chunk (a frame still being
	// appended on the source, or permanent tail damage the source's
	// manifest excludes).
	TornBytes int64
}

// Ingest merges a chunk of a foreign segment into the store: every frame
// is CRC-revalidated, records whose key is already live are skipped
// (content keys make the dedup byte-exact), and new records flow through
// the normal write-behind append path — so ingested data gets the same
// torn-tail crash-safety as local puts, and lands in this store's own
// segments where downstream peers can pull it onward (epidemic
// propagation). Chunks must start on a frame boundary; Ingest consumes
// whole frames and reports how far it got.
//
// Ingest and Compact are mutually exclusive: whichever starts second gets
// a *MaintenanceBusyError and retries later.
func (s *Store) Ingest(data []byte) (IngestResult, error) {
	var res IngestResult
	if s.closed.Load() {
		return res, errors.New("store: closed")
	}
	unlock, err := s.lockMaint("ingest")
	if err != nil {
		return res, err
	}
	defer unlock()

	scan := scanSegment(data, func(rec record) {
		if rec.typ == recTypeMeta {
			res.SkippedMeta++
			return
		}
		key := string(rec.key)
		s.mu.Lock()
		_, exists := s.index[key]
		s.mu.Unlock()
		if exists {
			res.Skipped++
			return
		}
		// Copy out of the network buffer: put retains both slices.
		s.put(rec.typ, []byte(key), append([]byte(nil), rec.val...))
		res.Ingested++
	})
	res.CRCSkipped = scan.skipped
	res.TornBytes = scan.tail
	res.Bytes = int64(len(data)) - scan.tail
	s.ingested.Add(int64(res.Ingested))
	s.ingestSkipped.Add(int64(res.Skipped))
	return res, nil
}

// metaKey frames a meta record key. Meta keys share the log's
// human-greppable style: "meta|replcursor|http://10.0.0.7:8077".
func metaKey(name string) []byte { return []byte("meta|" + name) }

// GetMeta reads one node-local meta record.
func (s *Store) GetMeta(name string) ([]byte, bool) {
	return s.get(metaKey(name), recTypeMeta)
}

// PutMeta writes one node-local meta record through the normal write-behind
// path. Because the log is strictly ordered, a meta record queued after a
// batch of ingested records can only become durable after them — the
// property replication cursors rely on: a crash that tears away ingested
// records necessarily tears away (or precedes) the cursor that would have
// claimed them.
func (s *Store) PutMeta(name string, val []byte) {
	s.put(recTypeMeta, metaKey(name), append([]byte(nil), val...))
}

// HasRun reports whether k is live without counting a hit or a miss — the
// peek dispatch fronts use to decide a retry can be served warm from the
// local store. It builds the key on the stack, as GetRun does.
func (s *Store) HasRun(k RunKey) bool {
	s.mu.Lock()
	e, ok := s.index[string(k.appendKey(make([]byte, 0, 256)))]
	s.mu.Unlock()
	return ok && e.typ == recTypeRun
}

// MarshalCursor / UnmarshalCursor give replication cursors one stable wire
// form (JSON, segment seqs as decimal strings) so the store and the
// replicator agree without sharing more types.
type cursorValue struct {
	Segments map[string]int64 `json:"segments"`
}

// MarshalCursor encodes a per-peer segment cursor (seq -> ingested bytes).
func MarshalCursor(segments map[int]int64) []byte {
	cv := cursorValue{Segments: make(map[string]int64, len(segments))}
	for seq, off := range segments {
		cv.Segments[strconv.Itoa(seq)] = off
	}
	data, _ := json.Marshal(cv)
	return data
}

// UnmarshalCursor decodes a cursor written by MarshalCursor. Damaged or
// empty input yields an empty cursor, and a damaged entry is dropped — the
// replicator then re-fetches and dedups, never loses data. Only
// MarshalCursor's own keys count: "1x" or " 1" would alias segment 1 in
// map order. A negative offset is damage too, since every pull from it
// would be refused.
func UnmarshalCursor(data []byte) map[int]int64 {
	var cv cursorValue
	out := make(map[int]int64)
	if err := json.Unmarshal(data, &cv); err != nil {
		return out
	}
	for key, off := range cv.Segments {
		if seq, err := strconv.Atoi(key); err == nil && seq >= 1 && off >= 0 && strconv.Itoa(seq) == key {
			out[seq] = off
		}
	}
	return out
}
