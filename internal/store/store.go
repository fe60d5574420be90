// Package store is the persistent result store behind the simulation
// service: an on-disk, crash-safe, append-only log of completed
// sim.MethodRun results, so jfserved restarts and repeated jfbench
// invocations reuse simulated work instead of recomputing sweeps.
// Deployments are not stored: a process recomputes them, which is cheaper
// than reading them back. Deployment records in directories written
// before that (type 2 below) still replay, replicate and compact, unread.
//
// # Keying
//
// Records are content-keyed, never name-keyed. A run result is identified
// by (method signature, method body hash, fabric geometry, engine
// version, serial-per-mesh rule, mesh-cycle bound) — see RunKey; its
// first three fields form the DeployKey old deployment records carry.
// Because the key carries the fabric geometry rather than the
// configuration name, renaming a configuration can never replay a wrong
// record.
//
// # On-disk format
//
// A store directory holds numbered segment files, "seg-000001.jfs",
// "seg-000002.jfs", ... Each segment is a sequence of framed records:
//
//	offset  size  field
//	0       4     magic "JFS1"
//	4       1     record type (1 = run result, 2 = deployment)
//	5       4     key length K  (uint32, little-endian)
//	9       4     value length V (uint32, little-endian)
//	13      K     key bytes (self-describing, human-greppable)
//	13+K    V     value bytes (run: sim.MethodRun stable binary codec;
//	              deployment: JSON deployRecord)
//	13+K+V  4     CRC32-C over bytes [0, 13+K+V)
//
// Records are append-only and idempotent: the same key may appear many
// times (across process lives or after races) and replay keeps the last
// occurrence. There are no tombstones — results are pure functions of
// their keys, so entries are never deleted, only superseded or dropped
// wholesale by an engine-version bump in the key.
//
// # Crash safety
//
// Appends go to the tail of the newest segment; a crash can only tear the
// final record, which the CRC detects, and replay discards the torn tail.
// Every Open starts a fresh segment rather than appending after a
// possibly-torn tail. A record whose frame is intact but whose checksum
// fails (bit rot, a flipped byte) is skipped individually and replay
// continues at the next frame. Compact rewrites the live records into a
// temporary file, fsyncs it, atomically renames it into place as the
// newest segment, and only then unlinks the old segments — a crash at any
// point leaves either the old segments, or the compacted segment plus
// harmless older duplicates.
//
// # Consistency
//
// Writes are write-behind: Put updates the in-memory index synchronously
// (readers immediately see their own writes) and a single writer
// goroutine appends to disk in the background. Flush blocks until the
// queue has drained and the segment is fsynced; Close flushes.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"javaflow/internal/obs"
)

// DefaultMaxSegmentBytes rotates the active segment once it passes 8 MiB
// — a full Chapter-7 sweep (≈10k runs at ≈100 B each) fits in one.
const DefaultMaxSegmentBytes = 8 << 20

// Options tunes a Store.
type Options struct {
	// MaxSegmentBytes rotates the active segment when it grows past this
	// (<=0 uses DefaultMaxSegmentBytes).
	MaxSegmentBytes int64
}

// indexEntry is one live record in memory.
type indexEntry struct {
	typ byte
	val []byte
}

// writeReq is one queued append; done (when non-nil) is closed after the
// record — and everything queued before it — is on disk and fsynced.
type writeReq struct {
	rec  record
	done chan struct{}
}

// Store is the persistent result store. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu    sync.Mutex
	index map[string]indexEntry
	// liveBytes is what the index's records occupy as log records: the
	// live side of the garbage ratio, kept as the index changes so that
	// reading the ratio does not walk the index. Guarded by mu.
	liveBytes int64

	qmu     sync.RWMutex // serializes queue sends against Close
	queue   chan writeReq
	writerD chan struct{} // closed when the writer goroutine exits

	fmu        sync.Mutex // guards the active segment (writer + compact)
	active     *os.File
	activeSize int64
	activeSeq  int
	// ownedSeqs are the closed segments whose full contents this store's
	// index covers: the segments replayed at Open plus segments this
	// process rotated or compacted. Compact deletes only these — never a
	// segment another process sharing the directory created afterwards.
	ownedSeqs []int
	segCount  int // ownedSeqs + the active segment (avoids ReadDir in Stats)
	// writeErr latches the first background append failure so Flush and
	// Close can report it instead of letting a caller exit believing its
	// results reached disk.
	writeErr error

	closed atomic.Bool

	// maintMu makes Compact and Ingest mutually exclusive: both rewrite
	// segment state, and interleaving would let a compact snapshot race
	// the foreign records an ingest is still appending. Acquired with
	// TryLock; the loser gets a typed *MaintenanceBusyError (see
	// lockMaint) and retries on its next round.
	maintMu sync.Mutex
	maintOp atomic.Value // string: which operation holds maintMu

	// manMu guards the sealed-segment manifest cache (see Manifest).
	manMu    sync.Mutex
	manCache map[int]manifestEntry

	// appendHook, when set, is called by the writer goroutine after each
	// payload (non-meta) record reaches the active segment. Replication
	// uses it as its push trigger; the hook must not block (it runs on the
	// single writer goroutine) and must not call back into the store.
	appendHook atomic.Pointer[func()]

	// journal, when set (SetJournal), receives compaction and quarantine
	// events. Held through an atomic pointer so late attachment cannot
	// race a live Compact.
	journal atomic.Pointer[obs.Journal]

	runHits, runMisses       atomic.Int64
	deployHits, deployMisses atomic.Int64
	puts, putErrors          atomic.Int64
	bytesAppended            atomic.Int64
	compactions              atomic.Int64
	ingested, ingestSkipped  atomic.Int64
	skippedRecords           int64 // set once during Open
	tornBytes                int64 // set once during Open
}

// Stats is a point-in-time snapshot of store effectiveness and health,
// exposed through serve.Metrics and GET /metrics. DeployHits and
// DeployMisses count the deprecated GetDeploy, which no serving path
// calls: on a jfserved node they read 0.
type Stats struct {
	RunHits        int64 `json:"runHits" prom:"javaflow_store_run_hits_total,counter" help:"MethodRun reads answered by the store."`
	RunMisses      int64 `json:"runMisses" prom:"javaflow_store_run_misses_total,counter" help:"MethodRun reads the store could not answer."`
	DeployHits     int64 `json:"deployHits" prom:"javaflow_store_deploy_hits_total,counter" help:"Deployment reads answered by the store."`
	DeployMisses   int64 `json:"deployMisses" prom:"javaflow_store_deploy_misses_total,counter" help:"Deployment reads the store could not answer."`
	Puts           int64 `json:"puts" prom:"javaflow_store_puts_total,counter" help:"Records appended to the log."`
	PutErrors      int64 `json:"putErrors" prom:"javaflow_store_put_errors_total,counter" help:"Appends that failed."`
	Records        int   `json:"records" prom:"javaflow_store_records,gauge" help:"Live records in the store index."`
	Segments       int   `json:"segments" prom:"javaflow_store_segments,gauge" help:"Segment files in the store log."`
	SkippedRecords int64 `json:"skippedRecords"`
	TornBytes      int64 `json:"tornBytes"`
	Compactions    int64 `json:"compactions" prom:"javaflow_store_compactions_total,counter" help:"Completed compactions."`
	BytesAppended  int64 `json:"bytesAppended" prom:"javaflow_store_bytes_appended_total,counter" help:"Bytes appended to the log."`
	// IngestedRecords / IngestSkipped count replication merges: records
	// pulled from peers versus records a peer offered that were already
	// live here (byte-exact dedup on content keys).
	IngestedRecords int64 `json:"ingestedRecords" prom:"javaflow_store_ingested_records_total,counter" help:"Records merged in from peer segments."`
	IngestSkipped   int64 `json:"ingestSkipped" prom:"javaflow_store_ingest_skipped_total,counter" help:"Peer-offered records already live here."`
}

func segmentName(seq int) string { return fmt.Sprintf("seg-%06d.jfs", seq) }

// listSegments returns the store's segment sequence numbers, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, e := range entries {
		var seq int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.jfs", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// Open opens (creating if needed) the store rooted at dir, replaying every
// segment into the in-memory index. Damaged records are skipped, torn
// tails discarded; Open fails only on I/O errors or an unusable dir.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		index:   make(map[string]indexEntry),
		queue:   make(chan writeReq, 1024),
		writerD: make(chan struct{}),
	}

	// Sweep temp files a crashed Compact left behind. (In a shared
	// directory this can also race another process mid-Compact; that
	// compaction then fails at its rename and retries, losing nothing —
	// the segments it was folding are still in place.)
	if tmps, err := filepath.Glob(filepath.Join(dir, "compact-*.tmp")); err == nil {
		for _, t := range tmps {
			_ = os.Remove(t)
		}
	}

	seqs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		res := scanSegment(data, func(rec record) {
			// Replay keeps the newest occurrence of each key; copy out of
			// the segment buffer so segments can be garbage collected.
			s.index[string(rec.key)] = indexEntry{
				typ: rec.typ,
				val: append([]byte(nil), rec.val...),
			}
		})
		s.skippedRecords += int64(res.skipped)
		s.tornBytes += res.tail
	}
	for k, e := range s.index {
		s.liveBytes += recordBytes(k, e.val)
	}

	// Always append to a fresh segment: the newest segment may end in a
	// torn record, and appending after garbage would hide later records
	// from replay.
	s.ownedSeqs = seqs
	s.activeSeq = 1
	if n := len(seqs); n > 0 {
		s.activeSeq = seqs[n-1] + 1
	}
	if err := s.openActive(); err != nil {
		return nil, err
	}
	s.segCount = len(seqs) + 1
	go s.writer()
	return s, nil
}

// openActive creates the active segment at or after s.activeSeq, skipping
// sequence numbers another process writing the same directory grabbed
// first (O_EXCL makes the claim atomic; concurrent writers land in
// disjoint segments and replay merges them). Caller holds fmu or is the
// only goroutine with access (Open).
func (s *Store) openActive() error {
	for attempts := 0; ; attempts++ {
		f, err := os.OpenFile(filepath.Join(s.dir, segmentName(s.activeSeq)),
			os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err == nil {
			s.active = f
			s.activeSize = 0
			return nil
		}
		if !os.IsExist(err) || attempts >= 10000 {
			return fmt.Errorf("store: %w", err)
		}
		s.activeSeq++
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats snapshots the counters. Segments counts the segment files this
// store knows of (replayed at Open or created since); another process
// sharing the directory may have added more.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	records := len(s.index)
	s.mu.Unlock()
	s.fmu.Lock()
	segments := s.segCount
	s.fmu.Unlock()
	return Stats{
		RunHits:         s.runHits.Load(),
		RunMisses:       s.runMisses.Load(),
		DeployHits:      s.deployHits.Load(),
		DeployMisses:    s.deployMisses.Load(),
		Puts:            s.puts.Load(),
		PutErrors:       s.putErrors.Load(),
		Records:         records,
		Segments:        segments,
		SkippedRecords:  s.skippedRecords,
		TornBytes:       s.tornBytes,
		Compactions:     s.compactions.Load(),
		BytesAppended:   s.bytesAppended.Load(),
		IngestedRecords: s.ingested.Load(),
		IngestSkipped:   s.ingestSkipped.Load(),
	}
}

// get reads one live record.
func (s *Store) get(key []byte, typ byte) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.index[string(key)]
	s.mu.Unlock()
	if !ok || e.typ != typ {
		return nil, false
	}
	return e.val, true
}

// put indexes the record synchronously and queues the disk append. If the
// store is already closed the record stays in memory only and counts as a
// put error.
func (s *Store) put(typ byte, key, val []byte) {
	s.mu.Lock()
	if old, ok := s.index[string(key)]; ok {
		s.liveBytes -= recordBytes(string(key), old.val)
	}
	s.index[string(key)] = indexEntry{typ: typ, val: val}
	s.liveBytes += recordBytes(string(key), val)
	s.mu.Unlock()
	s.puts.Add(1)
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.closed.Load() {
		s.putErrors.Add(1)
		return
	}
	s.queue <- writeReq{rec: record{typ: typ, key: key, val: val}}
}

// writer is the single background goroutine draining the append queue.
func (s *Store) writer() {
	defer close(s.writerD)
	for req := range s.queue {
		if req.done != nil {
			s.fmu.Lock()
			if s.active != nil {
				_ = s.active.Sync()
			}
			s.fmu.Unlock()
			close(req.done)
			continue
		}
		if err := s.appendToDisk(req.rec); err != nil {
			s.putErrors.Add(1)
			s.fmu.Lock()
			if s.writeErr == nil {
				s.writeErr = err
			}
			s.fmu.Unlock()
		} else if req.rec.typ != recTypeMeta {
			// Meta records (replication cursors) are
			// node-local bookkeeping — advertising them would make every
			// cursor write gossip about itself.
			if fn := s.appendHook.Load(); fn != nil {
				(*fn)()
			}
		}
	}
}

// SetAppendHook installs (or, with nil, removes) the post-append
// notification hook. The hook fires on the writer goroutine after a
// payload record lands in the active segment — before any fsync — so it
// must be cheap and non-blocking; flag-and-wake is the intended shape.
func (s *Store) SetAppendHook(fn func()) {
	if fn == nil {
		s.appendHook.Store(nil)
		return
	}
	s.appendHook.Store(&fn)
}

// appendToDisk frames and writes one record, rotating the segment first if
// it is full.
func (s *Store) appendToDisk(rec record) error {
	buf := appendRecord(nil, rec)
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if s.active == nil {
		return errors.New("store: closed")
	}
	if s.activeSize > 0 && s.activeSize+int64(len(buf)) > s.opts.MaxSegmentBytes {
		_ = s.active.Sync()
		_ = s.active.Close()
		s.ownedSeqs = append(s.ownedSeqs, s.activeSeq)
		s.activeSeq++
		if err := s.openActive(); err != nil {
			s.active = nil
			return err
		}
		s.segCount++
	}
	n, err := s.active.Write(buf)
	s.activeSize += int64(n)
	s.bytesAppended.Add(int64(n))
	if err != nil {
		// A failed or partial write leaves a torn frame at the tail;
		// appending after it would strand every later record behind
		// garbage the replay scanner discards. Retire this segment (its
		// good prefix still replays) and continue in a fresh one.
		_ = s.active.Close()
		s.ownedSeqs = append(s.ownedSeqs, s.activeSeq)
		s.activeSeq++
		if oerr := s.openActive(); oerr != nil {
			s.active = nil
		} else {
			s.segCount++
		}
		return err
	}
	return nil
}

// Flush blocks until every queued append is on disk and fsynced. It
// returns the first background append failure, if any occurred — callers
// that treat persistence as load-bearing must check it.
func (s *Store) Flush() error {
	done := make(chan struct{})
	s.qmu.RLock()
	if s.closed.Load() {
		s.qmu.RUnlock()
		return s.takeWriteErr()
	}
	s.queue <- writeReq{done: done}
	s.qmu.RUnlock()
	<-done
	return s.takeWriteErr()
}

// takeWriteErr reads the latched first append failure.
func (s *Store) takeWriteErr() error {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	return s.writeErr
}

// Close flushes, stops the writer, and closes the active segment,
// reporting the first append failure of the store's lifetime if one
// occurred. The index stays readable; further Puts stay in memory only.
func (s *Store) Close() error {
	s.qmu.Lock()
	if s.closed.Swap(true) {
		s.qmu.Unlock()
		return nil
	}
	close(s.queue)
	s.qmu.Unlock()
	<-s.writerD
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if s.active == nil {
		return s.writeErr
	}
	err := s.active.Sync()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	// A read-only process life appended nothing; unlink its empty segment
	// so warm-only workloads don't accrete one file per restart. Best
	// effort: a failed unlink leaves a harmless empty file behind and
	// must not fail a Close whose data is already durable.
	if err == nil && s.activeSize == 0 {
		if rerr := os.Remove(filepath.Join(s.dir, segmentName(s.activeSeq))); rerr == nil {
			s.segCount--
		}
	}
	s.active = nil
	if err == nil {
		err = s.writeErr
	}
	return err
}

// Compact rewrites the live index into a single fresh segment (written to
// a temp file, fsynced, then atomically renamed over a name claimed with
// O_EXCL) and unlinks the segments it supersedes. Safe to call on a live
// store: concurrent appends land in a new active segment opened after the
// compacted one, preserving replay order. In a shared directory it only
// ever deletes segments whose contents this store's index fully covers —
// segments replayed at Open or written by this process — never one a
// concurrent process created since; note that a segment another process
// was still appending to at our Open is replayed (and thus superseded)
// only up to the bytes visible then, so run Compact from a sole writer.
func (s *Store) Compact() error {
	if s.closed.Load() {
		return errors.New("store: closed")
	}
	// Compact and Ingest are mutually exclusive: whichever starts second
	// gets a typed *MaintenanceBusyError and retries later instead of
	// silently interleaving with a segment rewrite.
	unlock, err := s.lockMaint("compact")
	if err != nil {
		return err
	}
	defer unlock()
	// Quiesce the writer so the compacted snapshot includes every record
	// already accepted by Put.
	if err := s.Flush(); err != nil {
		return err
	}

	s.fmu.Lock()
	defer s.fmu.Unlock()
	// Re-check under fmu: a Close that raced in after the entry check has
	// already retired the active segment, and compacting a closed store
	// would resurrect a stray active file nothing will ever close.
	if s.closed.Load() || s.active == nil {
		return errors.New("store: closed")
	}

	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	for _, k := range keys {
		e := s.index[k]
		buf = appendRecord(buf, record{typ: e.typ, key: []byte(k), val: e.val})
	}
	s.mu.Unlock()

	tmp, err := os.CreateTemp(s.dir, "compact-*.tmp")
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("store: compact: %w", err)
	}

	// Claim the compacted segment's name atomically (as openActive does)
	// so the rename can never clobber a segment a concurrent process
	// created, then replace the claimed empty file with the snapshot. The
	// compacted segment goes after the current active one; the next
	// active segment goes after it, so later appends still win replay.
	compactSeq := s.activeSeq
	var claimed *os.File
	for {
		compactSeq++
		claimed, err = os.OpenFile(filepath.Join(s.dir, segmentName(compactSeq)),
			os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
		if err == nil {
			break
		}
		if !os.IsExist(err) {
			_ = os.Remove(tmpName)
			return fmt.Errorf("store: compact: %w", err)
		}
	}
	_ = claimed.Close()
	if err := os.Rename(tmpName, filepath.Join(s.dir, segmentName(compactSeq))); err != nil {
		_ = os.Remove(tmpName)
		_ = os.Remove(filepath.Join(s.dir, segmentName(compactSeq)))
		return fmt.Errorf("store: compact: %w", err)
	}

	// Drop the superseded segments: the ones this index was replayed or
	// rotated from, plus the active segment we are about to retire.
	_ = s.active.Sync()
	_ = s.active.Close()
	for _, seq := range append(s.ownedSeqs, s.activeSeq) {
		if seq != compactSeq {
			_ = os.Remove(filepath.Join(s.dir, segmentName(seq)))
		}
	}
	s.ownedSeqs = []int{compactSeq}
	s.activeSeq = compactSeq
	if err := s.openActive(); err != nil {
		s.active = nil
		return err
	}
	s.segCount = 2
	s.compactions.Add(1)
	s.journal.Load().Emit("store", "compaction", obs.SevInfo, "",
		"segment", strconv.Itoa(compactSeq),
		"bytes", strconv.Itoa(len(buf)))
	return nil
}
