package serve

// This file is the fleet-level observability plane: cross-node trace
// assembly (GET /v1/trace/{traceID}) and fleet health aggregation
// (GET /v1/fleet). Both scatter to the configured peers through
// peer.Each (bounded width, a timeout per peer), tolerate dead peers, and
// mark the result partial rather than failing — a fleet view that goes
// dark whenever one node does would be useless exactly when it matters.

import (
	"context"
	"net/http"
	"time"

	"javaflow/internal/obs"
	"javaflow/internal/peer"
)

const (
	// fleetPeerTimeout bounds each peer fetch during a fan-out.
	fleetPeerTimeout = 2 * time.Second
	// fleetFanOut bounds how many peers are queried concurrently.
	fleetFanOut = 8
)

// Fleet is the peer set the fleet-observability endpoints fan out to.
// Attach one with Service.SetFleet; without it the endpoints still
// work, reporting this node alone.
type Fleet struct {
	peers  []string
	client *http.Client
}

// NewFleet builds a fleet view over the given peer base URLs (the same
// -peers list dispatch and replication use). A nil client gets the peer
// transport bounded to the per-peer timeout.
func NewFleet(peers []string, client *http.Client) *Fleet {
	if client == nil {
		client = peer.NewClient(2, fleetPeerTimeout)
	}
	return &Fleet{peers: peers, client: client}
}

// localSpans builds this node's NodeSpans for one trace.
func localSpans(m *Metrics, traceID string) obs.NodeSpans {
	spans := m.Tracer().SpansFor(traceID)
	if spans == nil {
		spans = []obs.Span{}
	}
	return obs.NodeSpans{Node: localNodeName(m), Spans: spans}
}

// localNodeName names this node in fleet output: the advertise URL
// when configured, "local" otherwise.
func localNodeName(m *Metrics) string {
	if n := m.Node(); n != "" {
		return n
	}
	return "local"
}

// AssembleTrace gathers one trace's spans from this node and every
// fleet peer (each peer's local /debug/traces/{traceID} — never the
// recursive /v1/trace, so a fleet where every node lists the others
// terminates after one fan-out) and stitches them into one tree.
// Unreachable peers surface as partial results, never as errors.
func (s *Service) AssembleTrace(ctx context.Context, traceID string) obs.AssembledTrace {
	m := s.Scheduler().Metrics()
	nodes := []obs.NodeSpans{localSpans(m, traceID)}
	if f := s.fleet; f != nil {
		nodes = append(nodes, peer.Each(ctx, f.peers, fleetFanOut, fleetPeerTimeout, func(pctx context.Context, node string) obs.NodeSpans {
			var got obs.NodeSpans
			if err := peer.GetJSON(pctx, f.client, node+"/debug/traces/"+traceID, &got); err != nil {
				return obs.NodeSpans{Node: node, Err: err.Error(), Spans: []obs.Span{}}
			}
			if got.Node == "" {
				got.Node = node
			}
			return got
		})...)
	}
	return obs.AssembleTrace(traceID, nodes)
}

// FleetNodeHealth is one node's row in the GET /v1/fleet document.
type FleetNodeHealth struct {
	Node string `json:"node"`
	Up   bool   `json:"up"`
	Err  string `json:"error,omitempty"`
	// Metrics is the node's full /metrics snapshot when it answered.
	Metrics *MetricsSnapshot `json:"metrics,omitempty"`
}

// FleetAggregate is the fleet-wide merge: counters summed, latency
// histograms merged bucket-by-bucket (exact — every node shares the
// same boundaries) so the fleet percentiles are true percentiles of
// the union, not averages of per-node quantiles.
type FleetAggregate struct {
	Requests     int64   `json:"requests"`
	Jobs         int64   `json:"jobs"`
	JobErrors    int64   `json:"jobErrors"`
	InFlight     int64   `json:"inFlight"`
	Events       uint64  `json:"events"`
	P50LatencyMS float64 `json:"p50LatencyMs"`
	P95LatencyMS float64 `json:"p95LatencyMs"`
	P99LatencyMS float64 `json:"p99LatencyMs"`
}

// FleetSnapshot is the GET /v1/fleet response body.
type FleetSnapshot struct {
	NodesUp    int `json:"nodesUp"`
	NodesTotal int `json:"nodesTotal"`
	// Partial marks a document missing at least one node's numbers.
	Partial bool              `json:"partial"`
	Fleet   FleetAggregate    `json:"fleet"`
	Nodes   []FleetNodeHealth `json:"nodes"`
}

// FleetSnapshot scrapes every peer's /metrics JSON concurrently,
// folds the answers together with this node's own snapshot, and
// reports per-node up/down alongside the lossless fleet-wide merge.
func (s *Service) FleetSnapshot(ctx context.Context) FleetSnapshot {
	local := s.snapshotFull()
	nodes := []FleetNodeHealth{{
		Node:    localNodeName(s.Scheduler().Metrics()),
		Up:      true,
		Metrics: &local,
	}}
	if f := s.fleet; f != nil {
		nodes = append(nodes, peer.Each(ctx, f.peers, fleetFanOut, fleetPeerTimeout, func(pctx context.Context, node string) FleetNodeHealth {
			var snap MetricsSnapshot
			if err := peer.GetJSON(pctx, f.client, node+"/metrics", &snap); err != nil {
				return FleetNodeHealth{Node: node, Err: err.Error()}
			}
			name := node
			if snap.Node != "" {
				// Prefer the node's self-reported name (its advertise URL),
				// matching how trace assembly names peer span sets.
				name = snap.Node
			}
			return FleetNodeHealth{Node: name, Up: true, Metrics: &snap}
		})...)
	}

	out := FleetSnapshot{NodesTotal: len(nodes), Nodes: nodes}
	var lat obs.HistogramSnapshot
	for _, n := range nodes {
		if !n.Up || n.Metrics == nil {
			out.Partial = true
			continue
		}
		out.NodesUp++
		m := n.Metrics
		out.Fleet.Requests += m.Requests
		out.Fleet.Jobs += m.Jobs
		out.Fleet.JobErrors += m.JobErrors
		out.Fleet.InFlight += m.InFlight
		out.Fleet.Events += m.Events
		if m.JobLatency != nil {
			lat = lat.Merge(*m.JobLatency)
		}
	}
	out.Fleet.P50LatencyMS = float64(lat.Quantile(0.50)) / float64(time.Millisecond)
	out.Fleet.P95LatencyMS = float64(lat.Quantile(0.95)) / float64(time.Millisecond)
	out.Fleet.P99LatencyMS = float64(lat.Quantile(0.99)) / float64(time.Millisecond)
	return out
}

// snapshotFull builds the GET /metrics body: the scheduler snapshot plus
// the dispatch, replication, admission and Go runtime blocks.
func (s *Service) snapshotFull() MetricsSnapshot {
	snap := s.sched.Snapshot()
	rt := obs.ReadRuntimeStats()
	snap.Runtime = &rt
	if ds, ok := s.runner.(DispatchStatser); ok {
		snap.Dispatch = ds.DispatchStats()
	}
	if rp := s.replicator; rp != nil {
		stats := rp.Stats()
		snap.Replication = &stats
	}
	if ac := s.admission; ac != nil {
		stats := ac.Stats()
		snap.Admission = &stats
	}
	return snap
}
