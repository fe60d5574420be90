// Push side of the replicator: instead of waiting for a peer's next pull
// round, a node tells every peer which (segment seq, size, CRC) positions
// that peer has not acknowledged yet, and the peer pulls exactly that
// range immediately. One push serves three triggers — a commit, an ingest
// (so records hop on through a partial mesh in the receivers' own logs),
// and dispatch seeing a suspended peer recover (PushTo) — and the periodic
// pull loop stays the repair path for anything a partition missed.
//
// A peer's acknowledged positions advance only when it answers 200, so a
// peer that missed a push gets the whole gap at the next one; a receiver
// whose cursor already covers a notification answers "current", which is
// what makes a repeated notification harmless.
package replicate

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"javaflow/internal/obs"
	"javaflow/internal/peer"
	"javaflow/internal/store"
)

const (
	// gossipDebounce coalesces the append-hook burst of a sweep into one
	// push: peers need the final positions, not one notification per record.
	gossipDebounce = 25 * time.Millisecond
	// notifyTimeout bounds one outbound notification, including the
	// receiver's synchronous catch-up pull.
	notifyTimeout = 30 * time.Second
)

// ErrGossipDisabled reports a push entry point on a pull-only replicator.
// The serve handler maps it to 404, mirroring how endpoints behave when no
// replicator is configured at all.
var ErrGossipDisabled = errors.New("replicate: gossip not enabled (no advertise URL)")

// ErrBadNotification reports a structurally invalid notification (empty
// origin or no segments); the serve handler maps it to 400.
var ErrBadNotification = errors.New("replicate: bad notification: origin and segments are required")

// Notification is the POST /v1/replicate/notify wire body: "Origin has
// these segment positions — pull from it if you are behind." Segments
// carry cumulative positions, not diffs, so a lost notification is healed
// by the next one (or the pull loop) rather than leaving a hole.
type Notification struct {
	// Origin is the advertising node's base URL as its peers know it.
	Origin string `json:"origin"`
	// TTL is a relay hop budget older nodes sent and acted on. It stays
	// decodable so their notifications are still accepted; receivers
	// ignore it and senders never set it (omitempty keeps it off the
	// wire, so an older receiver reads 0 and never relays).
	TTL int `json:"ttl,omitempty"`
	// Segments are the origin's segment positions being advertised.
	Segments []store.SegmentInfo `json:"segments"`
}

// NotifyOutcome is the notify response body.
type NotifyOutcome struct {
	// Result classifies what the receiver did: "pulled" (was behind,
	// caught up synchronously), "current" (nothing missing), "self" (own
	// notification echoed back), or "unknown-origin" (origin is not a
	// configured peer, nothing to pull from).
	Result string `json:"result"`
	// Ingested / Skipped count records merged vs. already present during
	// a synchronous pull.
	Ingested int64 `json:"ingested"`
	Skipped  int64 `json:"skipped"`
}

// gossip is the replicator's push-side state.
type gossip struct {
	advertise string
	dirty     chan struct{} // append-hook wakeups, capacity 1

	mu sync.Mutex
	// acked[peer][seq] is the segment size that peer last answered 200
	// for; a push sends it only the segments that grew past that.
	acked map[string]map[int]int64

	sent, sendErrors, received atomic.Int64
	unknownOrigin, pulls       atomic.Int64
}

func newGossip(advertise string) *gossip {
	return &gossip{
		advertise: advertise,
		dirty:     make(chan struct{}, 1),
		acked:     make(map[string]map[int]int64),
	}
}

// delta returns the manifest segments that grew past peer's acknowledged
// positions, forgetting positions of segments compaction folded away
// (mirroring the pull loop's stale-cursor cleanup). Callers hold g.mu.
func (g *gossip) delta(peer string, manifest []store.SegmentInfo) []store.SegmentInfo {
	acked := g.acked[peer]
	if acked == nil {
		acked = make(map[int]int64)
		g.acked[peer] = acked
	}
	live := make(map[int]bool, len(manifest))
	var out []store.SegmentInfo
	for _, seg := range manifest {
		live[seg.Seq] = true
		if seg.Size > acked[seg.Seq] {
			out = append(out, seg)
		}
	}
	for seq := range acked {
		if !live[seq] {
			delete(acked, seq)
		}
	}
	return out
}

// ack advances peer's acknowledged positions to segs.
func (g *gossip) ack(peer string, segs []store.SegmentInfo) {
	g.mu.Lock()
	defer g.mu.Unlock()
	acked := g.acked[peer]
	for _, seg := range segs {
		if seg.Size > acked[seg.Seq] {
			acked[seg.Seq] = seg.Size
		}
	}
}

// GossipEnabled reports whether this replicator pushes as well as pulls.
func (r *Replicator) GossipEnabled() bool { return r.g != nil }

// startGossip installs the store append hook and launches the notifier
// loop; the returned channel closes when the loop exits. A pull-only
// replicator returns an already closed channel.
func (r *Replicator) startGossip(ctx context.Context) <-chan struct{} {
	done := make(chan struct{})
	if r.g == nil {
		close(done)
		return done
	}
	r.st.SetAppendHook(func() {
		select {
		case r.g.dirty <- struct{}{}:
		default: // a wakeup is already pending; the push is cumulative
		}
	})
	go func() {
		defer close(done)
		for {
			select {
			case <-ctx.Done():
				return
			case <-r.g.dirty:
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(gossipDebounce):
			}
			// Fold in wakeups that arrived while debouncing; the manifest
			// read below covers them.
			select {
			case <-r.g.dirty:
			default:
			}
			if err := r.AdvertiseNow(ctx); err != nil && ctx.Err() == nil {
				r.logff("replicate: gossip: %v", err)
			}
		}
	}()
	return done
}

// AdvertiseNow pushes every peer except this node itself the segment
// positions it has not acknowledged yet (see push); peers that are
// current are skipped. The notifier loop is the normal caller; tests call
// it to push synchronously.
func (r *Replicator) AdvertiseNow(ctx context.Context) error {
	if r.g == nil {
		return ErrGossipDisabled
	}
	targets := make([]string, 0, len(r.peers))
	for _, p := range r.peers {
		if p.name != r.g.advertise {
			targets = append(targets, p.name)
		}
	}
	return r.push(ctx, targets)
}

// PushTo runs the push for one peer in the background — dispatch calls it
// when a probe sees that peer recover, so the peer pulls what it missed
// while it was down instead of waiting for its next pull round. Names
// that are not configured peers, and pull-only replicators, are ignored.
func (r *Replicator) PushTo(name string) {
	if r.g == nil {
		return
	}
	p := r.peerByName(peer.Normalize(name))
	if p == nil || p.name == r.g.advertise {
		return
	}
	go func() {
		if err := r.push(context.Background(), []string{p.name}); err != nil {
			r.logff("replicate: push to recovered peer %s: %v", p.name, err)
		}
	}()
}

// push flushes the store and sends each of peers, concurrently, the
// manifest segments that grew past the positions that peer acknowledged.
// A peer's positions advance only on a 200, so one that missed a push
// gets the whole gap next time. The returned error joins the per-peer
// failures.
//
// The push runs under its own trace span (a fresh trace unless the
// caller's ctx already carries one), and the context flows into every
// notify POST, so the receivers' server spans and their pulls correlate
// under one trace ID.
func (r *Replicator) push(ctx context.Context, peers []string) (err error) {
	ctx, span := r.tracer.StartSpan(ctx, "gossip.advertise")
	defer func() { span.End(err) }()
	g := r.g
	// Flush first: peers pull through ReadSegmentAt, which only serves
	// written bytes — and a push must never advertise positions the origin
	// cannot back with durable data.
	if err := r.st.Flush(); err != nil {
		return err
	}
	manifest, err := r.st.Manifest()
	if err != nil {
		return err
	}
	deltas := make(map[string][]store.SegmentInfo, len(peers))
	var targets []string
	g.mu.Lock()
	for _, name := range peers {
		if d := g.delta(name, manifest); len(d) > 0 {
			deltas[name] = d
			targets = append(targets, name)
		}
	}
	g.mu.Unlock()
	if len(targets) == 0 {
		return nil
	}
	errs := peer.Each(ctx, targets, len(targets), notifyTimeout, func(sctx context.Context, name string) error {
		return r.postNotify(sctx, name, Notification{Origin: g.advertise, Segments: deltas[name]})
	})
	var failed []error
	for i, name := range targets {
		if errs[i] != nil {
			g.sendErrors.Add(1)
			// A peer that cannot be told about new data may be partitioned
			// from us; its positions stay put, so the next push (or the
			// pull loop) covers the gap.
			r.journal.Emit("replicate", "partition_suspected", obs.SevWarn, traceIDFrom(ctx),
				"peer", name, "error", errs[i].Error())
			failed = append(failed, fmt.Errorf("notify %s: %w", name, errs[i]))
			continue
		}
		g.sent.Add(1)
		g.ack(name, deltas[name])
	}
	span.SetAttr("peers", strconv.Itoa(len(targets)))
	span.SetAttr("sent", strconv.Itoa(len(targets)-len(failed)))
	return errors.Join(failed...)
}

// HandleNotify is the receiver side of a push: pull the advertised range
// from the origin synchronously (so the sender's POST returning means the
// data moved). It never forwards the notification. The pull shares the
// round mutex with the periodic loop, so cursors never race.
func (r *Replicator) HandleNotify(ctx context.Context, n Notification) (NotifyOutcome, error) {
	ctx, span := r.tracer.StartSpan(ctx, "gossip.notify")
	out, err := r.handleNotify(ctx, n)
	span.SetAttr("origin", peer.Normalize(n.Origin))
	span.SetAttr("result", out.Result)
	span.End(err)
	return out, err
}

func (r *Replicator) handleNotify(ctx context.Context, n Notification) (NotifyOutcome, error) {
	var out NotifyOutcome
	g := r.g
	if g == nil {
		return out, ErrGossipDisabled
	}
	origin := peer.Normalize(n.Origin)
	if origin == "" || len(n.Segments) == 0 {
		return out, ErrBadNotification
	}
	g.received.Add(1)
	if origin == g.advertise {
		out.Result = "self"
		return out, nil
	}
	p := r.peerByName(origin)
	if p == nil {
		// Nothing to pull from: no cursor namespace for a stranger.
		g.unknownOrigin.Add(1)
		out.Result = "unknown-origin"
		return out, nil
	}

	r.syncMu.Lock()
	defer r.syncMu.Unlock()
	cursor := p.loadCursor(r.st)
	behind := false
	for _, seg := range n.Segments {
		if cursor[seg.Seq] < seg.Size {
			behind = true
			break
		}
	}
	if !behind {
		out.Result = "current"
		return out, nil
	}
	g.pulls.Add(1)
	res, err := r.pullSegments(ctx, p, n.Segments, cursor)
	if res.segsPulled > 0 {
		// Cursor strictly after the data, as everywhere else.
		r.st.PutMeta(cursorMetaPrefix+p.name, store.MarshalCursor(cursor))
		if ferr := r.st.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	p.mu.Lock()
	p.cursor = cursor
	p.ingested += res.ingested
	p.skipped += res.skipped
	p.bytesFetched += res.fetched
	p.segsPulled += res.segsPulled
	healed := err == nil && p.lastErr != ""
	if err != nil {
		p.lastErr = err.Error()
	} else {
		// A clean pull is as good a verdict on the peer as a clean round:
		// without this, one failed notify pull would hide it from
		// SyncedPeers until the next pull round, which may be hours away.
		p.lastErr = ""
	}
	p.mu.Unlock()
	if healed {
		r.journal.Emit("replicate", "cursor_heal", obs.SevInfo, traceIDFrom(ctx), "peer", p.name)
	}
	if err != nil {
		return out, err
	}
	out.Result = "pulled"
	out.Ingested, out.Skipped = res.ingested, res.skipped
	return out, nil
}

// GossipStats is the push side's observable state, folded into Stats.
type GossipStats struct {
	// Advertise is the origin URL stamped on this node's notifications.
	Advertise string `json:"advertise"`
	// RumorsSent counts notifications peers accepted; SendErrors counts
	// rejected or unreachable ones.
	RumorsSent int64 `json:"rumorsSent" prom:"javaflow_gossip_rumors_sent_total,counter" help:"Push notifications peers accepted."`
	SendErrors int64 `json:"sendErrors"`
	// RumorsReceived counts inbound notifications.
	RumorsReceived int64 `json:"rumorsReceived" prom:"javaflow_gossip_rumors_received_total,counter" help:"Push notifications received."`
	UnknownOrigin  int64 `json:"unknownOrigin"`
	// PullsTriggered counts notifications that found this node behind and
	// triggered a synchronous catch-up pull.
	PullsTriggered int64 `json:"pullsTriggered" prom:"javaflow_gossip_pulls_total,counter" help:"Delta pulls triggered by notifications."`
}

// gossipStats snapshots the gossip counters (nil when gossip is off).
func (r *Replicator) gossipStats() *GossipStats {
	g := r.g
	if g == nil {
		return nil
	}
	return &GossipStats{
		Advertise:      g.advertise,
		RumorsSent:     g.sent.Load(),
		SendErrors:     g.sendErrors.Load(),
		RumorsReceived: g.received.Load(),
		UnknownOrigin:  g.unknownOrigin.Load(),
		PullsTriggered: g.pulls.Load(),
	}
}
