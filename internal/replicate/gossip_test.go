package replicate_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"javaflow/internal/replicate"
	"javaflow/internal/scenario/chaos"
	"javaflow/internal/serve"
	"javaflow/internal/store"
)

// newGossipReplicator builds a push-enabled replicator: advertise is the
// URL peers reach this node at, and the hour-long pull interval guarantees
// that anything converging inside a test did so via push, not the repair
// loop.
func newGossipReplicator(t *testing.T, st *store.Store, advertise string, peers ...string) *replicate.Replicator {
	t.Helper()
	r, err := replicate.New(replicate.Options{
		Store:     st,
		Peers:     peers,
		Interval:  time.Hour,
		Advertise: advertise,
	})
	if err != nil {
		t.Fatalf("replicate.New: %v", err)
	}
	return r
}

// gated serves n's handler a second time, behind a flap gate that faults
// the requests whose path starts with pathPrefix while down; it returns
// the gate and the gated base URL.
func gated(t *testing.T, n *node, pathPrefix string) (*chaos.FlapGate, string) {
	t.Helper()
	gate := &chaos.FlapGate{
		Inner: serve.NewHandler(n.svc),
		Match: func(r *http.Request) bool { return strings.HasPrefix(r.URL.Path, pathPrefix) },
	}
	ts := httptest.NewServer(gate)
	t.Cleanup(ts.Close)
	return gate, ts.URL
}

// postNotifyBody drives POST /v1/replicate/notify with a raw body and
// decodes the outcome.
func postNotifyBody(t *testing.T, base string, body []byte) (int, replicate.NotifyOutcome) {
	t.Helper()
	resp, err := http.Post(base+"/v1/replicate/notify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST notify: %v", err)
	}
	defer resp.Body.Close()
	var out replicate.NotifyOutcome
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode outcome: %v", err)
		}
	}
	return resp.StatusCode, out
}

// postNotify is postNotifyBody for a typed notification.
func postNotify(t *testing.T, base string, n replicate.Notification) (int, replicate.NotifyOutcome) {
	t.Helper()
	body, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	return postNotifyBody(t, base, body)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConvergenceAllToAllGossip is TestConvergenceAllToAll's push twin:
// three gossiping nodes run disjoint sweeps and must converge to the same
// byte-identical record set WITHOUT a second pull round — the replicate
// interval is an hour, so only the commit-triggered advertisements can
// explain convergence.
func TestConvergenceAllToAllGossip(t *testing.T) {
	methods := hostableMethods(t, 3)
	cfg := compact2(t)
	nodes := []*node{newNode(t, methods), newNode(t, methods), newNode(t, methods)}

	reps := make([]*replicate.Replicator, len(nodes))
	for i, n := range nodes {
		peers := make([]string, 0, 2)
		for j, p := range nodes {
			if j != i {
				peers = append(peers, p.ts.URL)
			}
		}
		reps[i] = newGossipReplicator(t, n.st, n.ts.URL, peers...)
		n.svc.SetReplicator(reps[i])
		stop := reps[i].Start()
		t.Cleanup(stop)
	}
	// Let each node finish its one startup pull round (over still-empty
	// stores) so the Rounds counter is quiescent before anything commits.
	for _, r := range reps {
		r := r
		waitFor(t, 5*time.Second, "startup round", func() bool { return r.Stats().Rounds >= 1 })
	}

	// Disjoint sweeps: node i computes only method i. Every append fires
	// the store hook, so the notifier advertises without being asked.
	for i, n := range nodes {
		n.compute(t, methods[i])
	}

	keys := make([]store.RunKey, len(methods))
	for i, m := range methods {
		keys[i] = store.RunKeyFor(cfg, m, testMaxCycles)
	}
	waitFor(t, 30*time.Second, "push convergence", func() bool {
		for _, n := range nodes {
			for _, k := range keys {
				if !n.st.HasRun(k) {
					return false
				}
			}
		}
		return true
	})

	// Byte-identical everywhere.
	for i, m := range methods {
		want := encodedRun(t, nodes[0].st, keys[i])
		for _, n := range nodes[1:] {
			if !bytes.Equal(encodedRun(t, n.st, keys[i]), want) {
				t.Fatalf("run %s differs across nodes", m.Signature())
			}
		}
	}

	// The proof: no node ran a second pull round, and every node was
	// caught up by at least one rumor-triggered pull.
	for i, r := range reps {
		s := r.Stats()
		if s.Rounds != 1 {
			t.Fatalf("node %d ran %d pull rounds; push convergence must not need more than the startup round", i, s.Rounds)
		}
		if s.Gossip == nil {
			t.Fatalf("node %d reports no gossip stats", i)
		}
		if s.Gossip.PullsTriggered == 0 {
			t.Fatalf("node %d converged without a rumor-triggered pull: %+v", i, s.Gossip)
		}
	}

	// Each node computed exactly its own method; everything else arrived
	// as bytes, never as an engine re-run.
	for i, n := range nodes {
		if misses := n.st.Stats().RunMisses; misses != 1 {
			t.Fatalf("node %d has %d engine misses, want exactly its own compute", i, misses)
		}
	}
}

// TestNotifyTrailingSlashSingleRumor pins the normalization contract: an
// origin spelled with a trailing slash is the same origin — one cursor
// namespace — not a fork, so the same positions in the canonical spelling
// find the receiver current.
func TestNotifyTrailingSlashSingleRumor(t *testing.T) {
	methods := hostableMethods(t, 1)
	cfg := compact2(t)
	src := newNode(t, methods)
	src.compute(t, methods[0])
	manifest, err := src.st.Manifest()
	if err != nil {
		t.Fatal(err)
	}

	dst := newNode(t, methods)
	dst.svc.SetReplicator(newGossipReplicator(t, dst.st, dst.ts.URL, src.ts.URL))

	// First notify, origin spelled with a trailing slash.
	status, out := postNotify(t, dst.ts.URL, replicate.Notification{
		Origin: src.ts.URL + "/", Segments: manifest,
	})
	if status != http.StatusOK || out.Result != "pulled" || out.Ingested == 0 {
		t.Fatalf("slashed-origin notify: status %d outcome %+v, want a pull", status, out)
	}
	k := store.RunKeyFor(cfg, methods[0], testMaxCycles)
	if !bytes.Equal(encodedRun(t, dst.st, k), encodedRun(t, src.st, k)) {
		t.Fatal("notified pull not byte-identical")
	}

	// Same positions, canonical spelling: the cursor already covers them,
	// so the receiver is current and pulls nothing under a second identity.
	status, out = postNotify(t, dst.ts.URL, replicate.Notification{
		Origin: src.ts.URL, Segments: manifest,
	})
	if status != http.StatusOK || out.Result != "current" || out.Ingested != 0 {
		t.Fatalf("canonical-origin notify: status %d outcome %+v, want current", status, out)
	}

	// One cursor namespace: the canonical key exists, the slashed one
	// must not.
	if _, ok := dst.st.GetMeta(cursorMetaPrefix + src.ts.URL); !ok {
		t.Fatal("canonical cursor missing after notified pull")
	}
	if _, ok := dst.st.GetMeta(cursorMetaPrefix + src.ts.URL + "/"); ok {
		t.Fatal("trailing slash forked a second cursor namespace")
	}

	// Contract edges: a structurally empty notification is a 400, and a
	// pull-only node 404s the endpoint entirely.
	status, _ = postNotify(t, dst.ts.URL, replicate.Notification{})
	if status != http.StatusBadRequest {
		t.Fatalf("empty notification: status %d, want 400", status)
	}
	pullOnly := newNode(t, methods)
	pullOnly.svc.SetReplicator(newReplicator(t, pullOnly.st, src.ts.URL))
	status, _ = postNotify(t, pullOnly.ts.URL, replicate.Notification{
		Origin: src.ts.URL, Segments: manifest,
	})
	if status != http.StatusNotFound {
		t.Fatalf("notify on pull-only node: status %d, want 404", status)
	}
}

// TestNotifyWireCompatibility pins both directions of the notify body
// across versions: a body from an older sender, which still carries a
// relay hop budget ("ttl"), is accepted and pulled; and an outgoing
// notification carries no "ttl" key, so an older receiver reads 0 and
// never relays it.
func TestNotifyWireCompatibility(t *testing.T) {
	methods := hostableMethods(t, 1)
	src := newNode(t, methods)
	src.compute(t, methods[0])
	manifest, err := src.st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	dst := newNode(t, methods)
	dst.svc.SetReplicator(newGossipReplicator(t, dst.st, dst.ts.URL, src.ts.URL))

	segs, err := json.Marshal(manifest)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"origin":%q,"ttl":3,"segments":%s}`, src.ts.URL, segs)
	status, out := postNotifyBody(t, dst.ts.URL, []byte(body))
	if status != http.StatusOK || out.Result != "pulled" || out.Ingested == 0 {
		t.Fatalf("older-sender body: status %d outcome %+v, want 200 pulled", status, out)
	}

	wire, err := json.Marshal(replicate.Notification{Origin: src.ts.URL, Segments: manifest})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(wire, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys["ttl"]; ok {
		t.Fatalf("outgoing notification carries a ttl key: %s", wire)
	}
}

// TestGossipChainThroughLogs: each node lists only its neighbours (A–B–C),
// yet A's result reaches C by push alone, because B's ingest lands A's
// records in B's own log and B pushes that log on. The receiver never
// forwards a notification, and the startup round stays the only pull
// round on every node.
func TestGossipChainThroughLogs(t *testing.T) {
	methods := hostableMethods(t, 1)
	cfg := compact2(t)
	a := newNode(t, methods)
	b := newNode(t, methods)
	c := newNode(t, methods)

	aRep := newGossipReplicator(t, a.st, a.ts.URL, b.ts.URL)
	bRep := newGossipReplicator(t, b.st, b.ts.URL, a.ts.URL, c.ts.URL)
	cRep := newGossipReplicator(t, c.st, c.ts.URL, b.ts.URL)
	reps := []*replicate.Replicator{aRep, bRep, cRep}
	for i, n := range []*node{a, b, c} {
		n.svc.SetReplicator(reps[i])
		t.Cleanup(reps[i].Start())
	}
	for _, r := range reps {
		r := r
		waitFor(t, 5*time.Second, "startup round", func() bool { return r.Stats().Rounds >= 1 })
	}

	a.compute(t, methods[0])
	k := store.RunKeyFor(cfg, methods[0], testMaxCycles)
	// C's peer stats move after the pulled records are durable, so wait
	// on them rather than on the key alone.
	waitFor(t, 10*time.Second, "A's result to reach C through B", func() bool {
		return c.st.HasRun(k) && cRep.Stats().Peers[0].RecordsIngested > 0
	})
	want := encodedRun(t, a.st, k)
	for _, n := range []*node{b, c} {
		if !bytes.Equal(encodedRun(t, n.st, k), want) {
			t.Fatal("chained record not byte-identical")
		}
	}
	if s := cRep.Stats(); s.Rounds != 1 || s.Gossip.PullsTriggered == 0 {
		t.Fatalf("C: rounds %d, gossip %+v — want the startup round only and a push-triggered pull", s.Rounds, s.Gossip)
	}

	// A node's own notification echoed back is ignored, and an origin
	// outside the peer list is dropped (nothing to pull from).
	manifest, err := a.st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	out, err := aRep.HandleNotify(context.Background(), replicate.Notification{
		Origin: a.ts.URL + "/", Segments: manifest,
	})
	if err != nil || out.Result != "self" {
		t.Fatalf("echoed notification: outcome %+v err %v, want self", out, err)
	}
	out, err = cRep.HandleNotify(context.Background(), replicate.Notification{
		Origin: a.ts.URL, Segments: manifest,
	})
	if err != nil || out.Result != "unknown-origin" {
		t.Fatalf("stranger notification: outcome %+v err %v, want unknown-origin", out, err)
	}
}

// TestPushRetriesMissedPeer: a peer that misses a push is owed the gap.
// Its acknowledged positions only advance on a 200, so the next push — a
// new commit's, or PushTo's on recovery, with no commit at all — carries
// every segment it missed.
func TestPushRetriesMissedPeer(t *testing.T) {
	methods := hostableMethods(t, 3)
	cfg := compact2(t)
	// One record per segment, so a missed commit is a missed segment.
	origin := newNodeWith(t, methods, store.Options{MaxSegmentBytes: 1})
	b := newNode(t, methods)
	c := newNode(t, methods)
	gate, cURL := gated(t, c, "/v1/replicate/notify")

	oRep := newGossipReplicator(t, origin.st, origin.ts.URL, b.ts.URL, cURL)
	b.svc.SetReplicator(newGossipReplicator(t, b.st, b.ts.URL, origin.ts.URL))
	c.svc.SetReplicator(newGossipReplicator(t, c.st, cURL, origin.ts.URL))
	keys := make([]store.RunKey, len(methods))
	for i, m := range methods {
		keys[i] = store.RunKeyFor(cfg, m, testMaxCycles)
	}

	// C's notify endpoint is down for the first commit: B takes it, C
	// misses it.
	gate.Down()
	origin.compute(t, methods[0])
	_ = oRep.AdvertiseNow(context.Background()) // C's failure is the point
	if gate.Faults() == 0 || c.st.HasRun(keys[0]) || !b.st.HasRun(keys[0]) {
		t.Fatalf("first push: faults %d, B has it %v, C has it %v — want B only",
			gate.Faults(), b.st.HasRun(keys[0]), c.st.HasRun(keys[0]))
	}

	// C is back and a second commit is pushed: C must receive the missed
	// segment along with the new one.
	gate.Up()
	origin.compute(t, methods[1])
	if err := oRep.AdvertiseNow(context.Background()); err != nil {
		t.Fatalf("second push: %v", err)
	}
	if !c.st.HasRun(keys[1]) {
		t.Fatal("the next push did not reach C")
	}
	if !c.st.HasRun(keys[0]) {
		t.Fatal("the next push did not carry the missed segment")
	}
	if !bytes.Equal(encodedRun(t, c.st, keys[0]), encodedRun(t, origin.st, keys[0])) {
		t.Fatal("gap delivered to C not byte-identical")
	}

	// Recovery push: C misses a third commit, then PushTo — no new
	// commit — delivers the gap. The peer name may be spelled loosely.
	gate.Down()
	origin.compute(t, methods[2])
	_ = oRep.AdvertiseNow(context.Background())
	if c.st.HasRun(keys[2]) {
		t.Fatal("C received a push through a closed gate")
	}
	gate.Up()
	oRep.PushTo(cURL + "/")
	// Five accepted sends in all: B three times, C on the second push and
	// on PushTo — which pushes C alone.
	waitFor(t, 10*time.Second, "PushTo to deliver the gap", func() bool {
		return c.st.HasRun(keys[2]) && oRep.Stats().Gossip.RumorsSent == 5
	})
	if s := oRep.Stats().Gossip; s.SendErrors != 2 || s.RumorsSent != 5 {
		t.Fatalf("origin gossip stats %+v, want 5 sends accepted and exactly the 2 gated ones failed", s)
	}

	// PushTo on a pull-only replicator, or for a stranger, is a no-op.
	newReplicator(t, c.st, origin.ts.URL).PushTo(origin.ts.URL)
	oRep.PushTo("http://192.0.2.1:1")
}

// TestNotifyPullHealsSyncedVerdict: a failed notify-triggered pull hides
// the source from SyncedPeers (dispatch's warm-retry preference), and the
// next successful one must restore it — without waiting for a pull round,
// which a push-first fleet may run hourly.
func TestNotifyPullHealsSyncedVerdict(t *testing.T) {
	methods := hostableMethods(t, 2)
	src := newNode(t, methods)
	src.compute(t, methods[0])
	gate, srcURL := gated(t, src, "/v1/replicate/segment/")

	dst := newNode(t, methods)
	rep := newGossipReplicator(t, dst.st, dst.ts.URL, srcURL)
	syncNow(t, rep)
	if got := rep.SyncedPeers(); len(got) != 1 || got[0] != srcURL {
		t.Fatalf("after a clean round SyncedPeers = %v, want the source", got)
	}

	src.compute(t, methods[1])
	manifest, err := src.st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	n := replicate.Notification{Origin: srcURL, Segments: manifest}

	gate.Down()
	if _, err := rep.HandleNotify(context.Background(), n); err == nil {
		t.Fatal("notify pull succeeded through a closed segment gate")
	}
	if got := rep.SyncedPeers(); len(got) != 0 {
		t.Fatalf("after a failed notify pull SyncedPeers = %v, want none", got)
	}

	gate.Up()
	out, err := rep.HandleNotify(context.Background(), n)
	if err != nil || out.Result != "pulled" {
		t.Fatalf("notify after heal: outcome %+v err %v, want pulled", out, err)
	}
	if got := rep.SyncedPeers(); len(got) != 1 || got[0] != srcURL {
		t.Fatalf("after a clean notify pull SyncedPeers = %v, want the source again", got)
	}
	if s := rep.Stats(); s.Rounds != 1 {
		t.Fatalf("rounds = %d, want the one clean round only", s.Rounds)
	}
}
