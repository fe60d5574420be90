// Package replicate keeps a fleet of jfserved stores convergent without
// shared filesystems or consensus, on two planes sharing one substrate.
// The pull plane is classic anti-entropy: a background Replicator on
// every node periodically polls its peers' segment manifests (GET
// /v1/replicate/segments), streams only the segment bytes it has not
// ingested yet (GET /v1/replicate/segment/{seq}, resumed from a per-peer
// cursor persisted in the local store), and merges the fetched frames
// through store.Ingest — which re-validates every CRC and skips keys that
// are already live. The push plane (see gossip.go): a node that commits
// or ingests payload records tells every peer the segment positions that
// peer has not acknowledged yet (POST /v1/replicate/notify), and the peer
// pulls the delta immediately — warm results are fleet-wide in
// milliseconds while the pull loop, which repairs anything push missed,
// can tick hourly.
//
// No node coordinates, and any topology that keeps the fleet connected
// converges every store to the union of all live records. Convergence is
// trivially safe because records are content-keyed and immutable — two
// nodes can only ever disagree by one of them missing a record, never by
// holding different values for the same key — so "merge" degenerates to
// byte-exact dedup, and a node that pulled a record serves it
// byte-identical to the node that computed it, without re-running the
// engine.
//
// Crash safety rides on the store's ordering guarantee: a peer's cursor
// is appended to the log after the records it claims, so a crash
// mid-ingest tears away the cursor no later than the data. Reopening
// replays from the last durable cursor and the next round re-fetches the
// lost tail; dedup absorbs anything that survived twice.
package replicate

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"javaflow/internal/obs"
	"javaflow/internal/peer"
	"javaflow/internal/store"
)

// DefaultInterval is the anti-entropy polling period when Options.Interval
// is zero: short enough that a warm result computed anywhere is fleet-wide
// within seconds, long enough that idle fleets cost a few manifest GETs.
const DefaultInterval = 15 * time.Second

// pullHeaderTimeout bounds a peer's time to first response byte on a
// manifest, segment or notify request: a peer that accepts the connection
// but never answers must fail its slice of the round, not hold it.
const pullHeaderTimeout = 30 * time.Second

// cursorMetaPrefix namespaces the per-peer cursor meta records in the
// store ("meta|replcursor|<peer URL>").
const cursorMetaPrefix = "replcursor|"

// Options configures a Replicator.
type Options struct {
	// Store is the local store foreign segments merge into. Required.
	Store *store.Store
	// Peers are the base URLs of the jfserved instances to pull from
	// (typically the same list dispatch uses).
	Peers []string
	// Interval is the polling period (<=0 uses DefaultInterval).
	Interval time.Duration
	// Client is the HTTP client for peer traffic (nil uses peer.NewClient
	// with two idle connections per peer and a 30 s time-to-first-header
	// bound; per-request lifetimes come from contexts, because a segment
	// fetch is bounded by segment size, not wall time).
	Client *http.Client
	// Logf, when non-nil, receives operator-facing progress lines.
	Logf func(format string, args ...any)

	// Advertise, when non-empty, enables push and is the base URL peers
	// reach this node at (it becomes Notification.Origin, so it must
	// appear in the peers' own Peers lists, or they will drop the
	// notification as unknown-origin). With push enabled, Start also
	// installs a store append hook: every committed or ingested payload
	// record wakes the notifier, which sends every peer the (segment seq,
	// size, CRC) positions that peer has not acknowledged; the periodic
	// pull loop remains the repair path for anything a push missed. Left
	// empty, the replicator is pull-only; bench/trace.go builds one that
	// way to time replicate.sync_records_per_s.
	Advertise string

	// Tracer records pull and gossip spans; pass the serving node's
	// serve.Metrics tracer so replication hops land in the same
	// /debug/traces dump as the requests they serve. Nil disables spans.
	Tracer *obs.Tracer
	// Registry receives the per-peer pull histograms. Nil leaves them
	// unregistered. The counters are Stats fields, which the node's
	// /metrics renders.
	Registry *obs.Registry
	// Journal receives replication state transitions (foreign-segment
	// ingests, cursor heals after a failing peer recovers, suspected
	// partitions when gossip sends fail) as structured events. Nil
	// disables event recording.
	Journal *obs.Journal
}

// peerState is one peer's replication position and accounting. The mutex
// guards everything below it; the sync loop writes, Stats and SyncedPeers
// read.
type peerState struct {
	name string

	mu           sync.Mutex
	cursor       map[int]int64 // seq -> bytes ingested (persisted in the store)
	loaded       bool          // cursor recovered from the store yet?
	ingested     int64
	skipped      int64
	bytesFetched int64
	segsPulled   int64
	lastSync     time.Time // completion time of the last successful round
	lastErr      string
	caughtUp     bool // last round ended with every manifest segment fully ingested
}

// Replicator pulls missing store segments from peers. All methods are safe
// for concurrent use; rounds themselves are serialized.
type Replicator struct {
	st       *store.Store
	peers    []*peerState
	interval time.Duration
	client   *http.Client
	logf     func(format string, args ...any)

	syncMu sync.Mutex // one reconciliation (round or notify pull) at a time
	rounds atomic.Int64
	errs   atomic.Int64

	tracer   *obs.Tracer
	journal  *obs.Journal
	pullHist *obs.HistogramVec // per-peer pull duration (round slice or notify delta)

	// g is the push side; nil when Options.Advertise is empty (pull-only
	// replicator).
	g *gossip
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// New builds a replicator over opts.Peers. Peer reachability is not
// checked here — an unreachable peer just fails its slice of each round
// and is retried on the next.
func New(opts Options) (*Replicator, error) {
	if opts.Store == nil {
		return nil, errors.New("replicate: Options.Store is required")
	}
	// The peers are named exactly as dispatch names its backends, so
	// SyncedPeers matches backend names (warm-retry preference) and a
	// trailing slash in -peers cannot fork a second cursor namespace.
	peers, err := peer.ParseList(opts.Peers)
	if err != nil {
		return nil, fmt.Errorf("replicate: %w", err)
	}
	if len(peers) == 0 {
		return nil, errors.New("replicate: at least one peer is required")
	}
	interval := opts.Interval
	if interval <= 0 {
		interval = DefaultInterval
	}
	client := opts.Client
	if client == nil {
		client = peer.NewClient(2, pullHeaderTimeout)
	}
	r := &Replicator{
		st:       opts.Store,
		interval: interval,
		client:   client,
		logf:     opts.Logf,
	}
	for _, p := range peers {
		r.peers = append(r.peers, &peerState{name: p})
	}
	if adv := peer.Normalize(opts.Advertise); adv != "" {
		r.g = newGossip(adv)
	}
	r.tracer = opts.Tracer
	r.journal = opts.Journal
	r.pullHist = opts.Registry.NewHistogramVec("javaflow_replicate_pull_duration_seconds",
		"Per-peer reconciliation latency: a pull round's slice or a gossip delta pull.", "peer")
	return r, nil
}

// peerByName finds the configured peer whose normalized base URL is name.
func (r *Replicator) peerByName(name string) *peerState {
	for _, p := range r.peers {
		if p.name == name {
			return p
		}
	}
	return nil
}

func (r *Replicator) logff(format string, args ...any) {
	if r.logf != nil {
		r.logf(format, args...)
	}
}

// Start launches the background sync loop: one round immediately (so a
// fresh daemon warms up without waiting a full interval), then one per
// interval. With push enabled (Options.Advertise) it also installs the
// store append hook and starts the notifier, so every committed payload
// record — engine run or ingested foreign frame — is pushed at every peer
// without waiting for its next pull. The returned stop is
// idempotent and waits for any in-flight round to finish.
func (r *Replicator) Start() (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := r.SyncNow(ctx); err != nil && ctx.Err() == nil {
			r.logff("replicate: %v", err)
		}
		ticker := time.NewTicker(r.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			if err := r.SyncNow(ctx); err != nil && ctx.Err() == nil {
				r.logff("replicate: %v", err)
			}
		}
	}()
	gossipDone := r.startGossip(ctx)
	var once sync.Once
	return func() {
		once.Do(func() {
			if r.g != nil {
				r.st.SetAppendHook(nil)
			}
			cancel()
			<-done
			<-gossipDone
		})
	}
}

// SyncNow runs one full anti-entropy round inline: every peer's manifest
// is polled and every missing segment range fetched and ingested. Rounds
// are serialized — a forced round concurrent with the background loop
// waits its turn. The returned error joins the per-peer failures; a peer
// that failed keeps its cursor and is retried next round.
func (r *Replicator) SyncNow(ctx context.Context) error {
	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	var errs []error
	for _, p := range r.peers {
		if err := ctx.Err(); err != nil {
			return err
		}
		pctx, span := r.tracer.StartSpan(ctx, "replicate.pull")
		span.SetAttr("peer", p.name)
		start := time.Now()
		err := r.syncPeer(pctx, p)
		r.pullHist.With(p.name).Record(time.Since(start))
		span.End(err)
		if err != nil {
			r.errs.Add(1)
			errs = append(errs, fmt.Errorf("peer %s: %w", p.name, err))
		}
	}
	r.rounds.Add(1)
	return errors.Join(errs...)
}

// loadCursor returns a copy of the peer's cursor, recovering it from the
// store's meta record on first use (the last durable point — records the
// cursor claims are guaranteed replayed, see store.PutMeta).
func (p *peerState) loadCursor(st *store.Store) map[int]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.loaded {
		p.cursor = make(map[int]int64)
		if val, ok := st.GetMeta(cursorMetaPrefix + p.name); ok {
			p.cursor = store.UnmarshalCursor(val)
		}
		p.loaded = true
	}
	out := make(map[int]int64, len(p.cursor))
	for seq, off := range p.cursor {
		out[seq] = off
	}
	return out
}

// fail records a round failure for Stats.
func (p *peerState) fail(err error) {
	p.mu.Lock()
	p.lastErr = err.Error()
	p.caughtUp = false
	p.mu.Unlock()
}

// pullResult accumulates one reconciliation pass against a peer.
type pullResult struct {
	ingested, skipped, fetched, segsPulled int64
}

// pullSegments fetches and ingests every byte of segs that cursor has
// not covered yet, advancing cursor in place. It is the shared transfer
// path for the periodic pull round (called with a full manifest) and a
// gossip notification (called with just the advertised delta). The
// caller persists the advanced cursor after the data and owns the peer
// bookkeeping; a mid-pass failure returns the progress made so far —
// already ingested segments are durable, so their cursor advance
// survives and the next reconciliation re-fetches only the failed
// segment onward, not the whole log.
func (r *Replicator) pullSegments(ctx context.Context, p *peerState, segs []store.SegmentInfo, cursor map[int]int64) (pullResult, error) {
	var res pullResult
	sorted := append([]store.SegmentInfo(nil), segs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	for _, seg := range sorted {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		from := cursor[seg.Seq]
		if from >= seg.Size {
			continue
		}
		data, err := r.fetchSegment(ctx, p.name, seg.Seq, from)
		if err != nil {
			return res, err
		}
		// A full-segment fetch can be checked against the advertised CRC;
		// partial resumes rely on the per-frame CRCs Ingest enforces.
		if from == 0 && int64(len(data)) >= seg.Size {
			if crc32.Checksum(data[:seg.Size], castagnoli) != seg.CRC32C {
				return res, fmt.Errorf("replicate: segment %d checksum mismatch (transfer corrupt or segment rewritten)", seg.Seq)
			}
		}
		ires, err := r.st.Ingest(data)
		if err != nil {
			// Includes *store.MaintenanceBusyError when a compaction holds
			// the store; this segment's cursor is untouched, the next
			// reconciliation re-fetches it.
			return res, err
		}
		if ires.Bytes == 0 && len(data) > 0 {
			return res, fmt.Errorf("replicate: segment %d yielded no frames at offset %d (cursor off a frame boundary?)", seg.Seq, from)
		}
		cursor[seg.Seq] = from + ires.Bytes
		res.ingested += int64(ires.Ingested)
		res.skipped += int64(ires.Skipped + ires.SkippedMeta)
		res.fetched += int64(len(data))
		res.segsPulled++
		if ires.CRCSkipped > 0 {
			r.logff("replicate: %s segment %d: %d checksum-failed frame(s) skipped", p.name, seg.Seq, ires.CRCSkipped)
		}
	}
	return res, nil
}

// syncPeer reconciles this store against one peer: fetch the manifest,
// stream every byte range the cursor has not covered, ingest, then
// persist the advanced cursor (after the data, never before).
func (r *Replicator) syncPeer(ctx context.Context, p *peerState) error {
	manifest, err := r.fetchManifest(ctx, p.name)
	if err != nil {
		p.fail(err)
		return err
	}
	cursor := p.loadCursor(r.st)
	res, roundErr := r.pullSegments(ctx, p, manifest, cursor)
	ingested, skipped, fetched, segsPulled := res.ingested, res.skipped, res.fetched, res.segsPulled

	caughtUp := roundErr == nil
	if roundErr == nil {
		// Forget positions for segments the peer compacted away; their
		// replacement (a higher seq) is covered by the rounds above, and a
		// stale entry would leak one map slot per compaction forever.
		// Only on a clean round — after a failure the manifest was not
		// fully worked, and progress must never be thrown away.
		live := make(map[int]bool, len(manifest))
		for _, seg := range manifest {
			live[seg.Seq] = true
			if cursor[seg.Seq] < seg.Size {
				caughtUp = false
			}
		}
		for seq := range cursor {
			if !live[seq] {
				delete(cursor, seq)
			}
		}
	}

	if segsPulled > 0 {
		// Persist the cursor strictly after the ingested records: the log
		// is ordered, so a torn tail can never keep the cursor while
		// losing the data it claims.
		r.st.PutMeta(cursorMetaPrefix+p.name, store.MarshalCursor(cursor))
		if err := r.st.Flush(); err != nil {
			if roundErr == nil {
				roundErr = err
			}
			caughtUp = false
		} else {
			r.logff("replicate: %s — %d records ingested, %d already present, %d bytes from %d segment(s)",
				p.name, ingested, skipped, fetched, segsPulled)
			if ingested > 0 {
				r.journal.Emit("replicate", "ingest", obs.SevInfo, traceIDFrom(ctx),
					"peer", p.name,
					"records", strconv.FormatInt(ingested, 10),
					"bytes", strconv.FormatInt(fetched, 10))
			}
		}
	}

	p.mu.Lock()
	p.cursor = cursor
	p.ingested += ingested
	p.skipped += skipped
	p.bytesFetched += fetched
	p.segsPulled += segsPulled
	p.caughtUp = caughtUp
	healed := roundErr == nil && p.lastErr != ""
	if roundErr != nil {
		p.lastErr = roundErr.Error()
	} else {
		p.lastSync = time.Now()
		p.lastErr = ""
	}
	p.mu.Unlock()
	if healed {
		// The peer's cursor advanced cleanly after at least one failed
		// round — the partition (or crash) against it has healed.
		r.journal.Emit("replicate", "cursor_heal", obs.SevInfo, traceIDFrom(ctx), "peer", p.name)
	}
	return roundErr
}

// traceIDFrom extracts the active trace ID for journal events ("" when
// the context carries no trace).
func traceIDFrom(ctx context.Context) string {
	tc, _ := obs.TraceFrom(ctx)
	return tc.TraceID
}

// SyncedPeers lists the peers whose segment logs this node had fully
// ingested as of their last successful round — peers actively exchanging
// segments with us. Dispatch fronts prefer these on a warm-key retry: in
// a fully meshed fleet a caught-up peer holds every warm result any node
// has computed, so routing a retry there serves bytes from its store
// instead of re-running the engine somewhere cold.
func (r *Replicator) SyncedPeers() []string {
	var out []string
	for _, p := range r.peers {
		p.mu.Lock()
		if p.caughtUp && p.lastErr == "" {
			out = append(out, p.name)
		}
		p.mu.Unlock()
	}
	return out
}

// PeerStats is one peer's slice of Stats — the /v1/store and /metrics
// replication block.
type PeerStats struct {
	Peer string `json:"peer" prom:",label=peer"`
	// Cursor is the persisted per-segment position (seq -> bytes
	// ingested), the exact state a restart resumes from.
	Cursor map[string]int64 `json:"cursor,omitempty"`
	// RecordsIngested / RecordsSkipped count pulled records versus
	// offered-but-already-present ones, over this process's lifetime.
	RecordsIngested int64 `json:"recordsIngested" prom:"javaflow_replicate_ingested_records_total,counter" help:"Records pulled in from peers."`
	RecordsSkipped  int64 `json:"recordsSkipped"`
	BytesFetched    int64 `json:"bytesFetched"`
	SegmentsPulled  int64 `json:"segmentsPulled"`
	// LastSyncUnixMs is when the last successful round against this peer
	// finished (0 = never).
	LastSyncUnixMs int64  `json:"lastSyncUnixMs"`
	LastError      string `json:"lastError,omitempty"`
	// CaughtUp reports whether that round left nothing unfetched.
	CaughtUp bool `json:"caughtUp"`
}

// Stats is the replicator's observable state.
type Stats struct {
	IntervalSeconds float64 `json:"intervalSeconds"`
	Rounds          int64   `json:"rounds" prom:"javaflow_replicate_rounds_total,counter" help:"Completed anti-entropy rounds."`
	RoundErrors     int64   `json:"roundErrors" prom:"javaflow_replicate_round_errors_total,counter" help:"Per-peer failures across rounds."`
	// Gossip is the push block; absent on pull-only replicators
	// (Options.Advertise unset).
	Gossip *GossipStats `json:"gossip,omitempty"`
	Peers  []PeerStats  `json:"peers"`
}

// Stats snapshots the replication counters and per-peer cursors.
func (r *Replicator) Stats() Stats {
	s := Stats{
		IntervalSeconds: r.interval.Seconds(),
		Rounds:          r.rounds.Load(),
		RoundErrors:     r.errs.Load(),
		Gossip:          r.gossipStats(),
		Peers:           make([]PeerStats, 0, len(r.peers)),
	}
	for _, p := range r.peers {
		p.mu.Lock()
		ps := PeerStats{
			Peer:            p.name,
			RecordsIngested: p.ingested,
			RecordsSkipped:  p.skipped,
			BytesFetched:    p.bytesFetched,
			SegmentsPulled:  p.segsPulled,
			LastError:       p.lastErr,
			CaughtUp:        p.caughtUp,
		}
		if !p.lastSync.IsZero() {
			ps.LastSyncUnixMs = p.lastSync.UnixMilli()
		}
		if len(p.cursor) > 0 {
			ps.Cursor = make(map[string]int64, len(p.cursor))
			for seq, off := range p.cursor {
				ps.Cursor[fmt.Sprintf("%d", seq)] = off
			}
		}
		p.mu.Unlock()
		s.Peers = append(s.Peers, ps)
	}
	return s
}
